package main

// Query mode: read a completed (or in-progress) campaign store back
// through the indexed query path instead of re-scanning every segment.
// The predicate — family, strategy, point-index range — compiles to a
// plan that resolves to the minimal segment byte runs via the per-segment
// sparse indexes; only those runs are read and decoded. stdout carries
// exactly the deliverable (JSONL records or the aggregate table); the
// pushdown evidence (bytes read vs total, lines decoded, rebuilt
// sidecars, plan-cache counters) goes to stderr.

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"ptgsched"
	"ptgsched/internal/cli"
)

// queryOpts carries the -query flag group from run to queryMode.
type queryOpts struct {
	family   string
	strategy string
	from     int
	to       int // negative: end of the expansion
	format   string
	fullScan bool
}

// queryMode opens the store read-only, compiles the predicate, and
// streams the selection. -format jsonl emits the matching records as
// campaign wire JSONL (projected to the selected strategy's column when
// -strategy is set); -format table prints per-(cell, #PTGs, strategy)
// aggregate rows over the same selection. -fullscan forces the unindexed
// path that decodes every record — same output bytes, for differential
// verification and for measuring what pushdown saves.
func queryMode(w io.Writer, specPath, dir string, q queryOpts) error {
	switch q.format {
	case "table", "jsonl":
	default:
		return fmt.Errorf("-format must be table or jsonl, not %q", q.format)
	}
	e, err := cli.LoadCampaign(specPath)
	if err != nil {
		return err
	}
	st, err := ptgsched.OpenCampaignStoreRead(dir, e)
	if err != nil {
		return err
	}
	defer st.Close()
	if n := st.RebuiltSegments(); n > 0 {
		fmt.Fprintf(os.Stderr, "ptgbench: query: rebuilt the index of %d segment(s) by scan (missing or inconsistent .idx sidecars)\n", n)
	}

	to := q.to
	if to < 0 {
		to = ptgsched.CampaignQueryNoLimit
	}
	plan, err := ptgsched.CompileCampaignQuery(e, ptgsched.CampaignQuery{
		Family: q.family, Strategy: q.strategy, From: q.from, To: to,
	})
	if err != nil {
		return err
	}

	var stats ptgsched.CampaignQueryStats
	if q.format == "table" {
		var rows []ptgsched.CampaignGroupRow
		if q.fullScan {
			rows, stats, err = aggregateByFullScan(st, plan)
		} else {
			rows, stats, err = st.AggregateWhere(plan)
		}
		if err != nil {
			return err
		}
		renderQueryTable(w, plan.Query().String(), rows)
	} else {
		out := bufio.NewWriter(w)
		var line []byte
		emit := func(r ptgsched.CampaignPointResult) error {
			var err error
			if line, err = ptgsched.AppendCampaignJSONL(line[:0], r); err != nil {
				return err
			}
			_, err = out.Write(line)
			return err
		}
		if q.fullScan {
			stats, err = st.QueryFullScan(plan, emit)
		} else {
			stats, err = st.Query(plan, emit)
		}
		if err != nil {
			return err
		}
		if err := out.Flush(); err != nil {
			return err
		}
	}

	mode := "pushdown"
	if q.fullScan {
		mode = "full scan"
	}
	cache := ptgsched.CampaignQueryCache()
	fmt.Fprintf(os.Stderr,
		"ptgbench: query %s (%s): %d records emitted; read %d of %d bytes, decoded %d lines, %d/%d runs in %d/%d segments; plan cache %d hits / %d misses\n",
		plan.Query().String(), mode, stats.Emitted,
		stats.BytesRead, stats.BytesTotal, stats.LinesDecoded,
		stats.RunsMatched, stats.RunsTotal, stats.SegmentsTouched, stats.SegmentsTotal,
		cache.Hits, cache.Misses)
	return nil
}

// aggregateByFullScan is AggregateWhere over the unindexed path: every
// record is decoded and the plan's residual filter applied, so its rows
// must equal the pushdown aggregate's bit for bit.
func aggregateByFullScan(st *ptgsched.CampaignStore, p *ptgsched.CampaignQueryPlan) ([]ptgsched.CampaignGroupRow, ptgsched.CampaignQueryStats, error) {
	agg := ptgsched.NewCampaignGroupAggregator(p)
	stats, err := st.QueryFullScan(p, agg.Add)
	if err != nil {
		return nil, stats, err
	}
	return agg.Rows(), stats, nil
}

// renderQueryTable prints the aggregate rows of one query. Rows arrive
// in global order (cell, then #PTGs, then strategy column); the layout
// mirrors the campaign summary tables so the numbers line up visually.
func renderQueryTable(w io.Writer, title string, rows []ptgsched.CampaignGroupRow) {
	fmt.Fprintf(w, "Query %s: %d rows\n", title, len(rows))
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "%-28s %6s %-10s %6s %12s %14s %14s\n",
		"cell", "#PTGs", "strategy", "n", "unfairness", "makespan (s)", "rel makespan")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %6d %-10s %6d %12.3f %14.1f %14.3f\n",
			r.Label, r.NPTGs, r.Strategy, r.Count, r.Unfair, r.Makespan, r.Rel)
	}
}
