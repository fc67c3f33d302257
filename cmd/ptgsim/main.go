// Command ptgsim schedules a batch of concurrently-submitted parallel task
// graphs on a Grid'5000 multi-cluster site and reports the paper's metrics
// for one chosen constraint-determination strategy. It can also run a
// single named point of a declarative campaign spec.
//
// Usage:
//
//	ptgsim -platform rennes -family random -n 6 -strategy WPS-width -seed 1 -gantt
//	ptgsim -campaign examples/campaign.json -list
//	ptgsim -campaign examples/campaign.json -point "random/n=4/rep=7/Rennes"
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"

	"ptgsched"
	"ptgsched/internal/cli"
)

func main() { cli.Main("ptgsim", run) }

// run executes one ptgsim invocation, writing its report to w. It is the
// testable core behind main.
func run(argv []string, w io.Writer) error {
	fs := flag.NewFlagSet("ptgsim", flag.ContinueOnError)
	var (
		platformName = fs.String("platform", "rennes", "platform: lille, nancy, rennes or sophia")
		familyName   = fs.String("family", "random", "PTG family: random, fft or strassen")
		n            = fs.Int("n", 4, "number of concurrent PTGs")
		strategyName = fs.String("strategy", "WPS-width", "strategy: S, ES, PS-cp, PS-width, PS-work, WPS-cp, WPS-width, WPS-work")
		mu           = fs.Float64("mu", -1, "µ for WPS strategies (default: the paper's calibrated value)")
		seed         = fs.Int64("seed", 1, "random seed")
		gantt        = fs.Bool("gantt", false, "print a text Gantt chart")
		jsonOut      = fs.Bool("json", false, "print the schedule as JSON")
		campaignPath = fs.String("campaign", "", "declarative campaign spec; run one of its points (-point) or list them (-list)")
		point        = fs.String("point", "", "campaign: the scenario point to run, by canonical name or global index")
		list         = fs.Bool("list", false, "campaign: list the spec's cells and points instead of running")
	)
	if ok, err := cli.Parse(fs, argv, w); !ok {
		return err
	}

	if *campaignPath != "" {
		return campaignPoint(w, *campaignPath, *point, *list, *gantt)
	}
	if *point != "" || *list {
		return fmt.Errorf("-point and -list require -campaign")
	}

	pf, err := ptgsched.PlatformByName(*platformName)
	if err != nil {
		return err
	}
	family, err := ptgsched.FamilyByName(*familyName)
	if err != nil {
		return err
	}
	strat, err := ptgsched.StrategyByName(*strategyName, *mu, family)
	if err != nil {
		return err
	}

	r := rand.New(rand.NewSource(*seed))
	graphs := make([]*ptgsched.Graph, *n)
	for i := range graphs {
		graphs[i] = ptgsched.GeneratePTG(family, r)
	}

	sched := ptgsched.NewScheduler(pf)
	fmt.Fprintf(w, "platform : %s\n", pf)
	fmt.Fprintf(w, "strategy : %s\n", strat)
	fmt.Fprintf(w, "PTGs     : %d × %s\n\n", *n, family)

	own := make([]float64, len(graphs))
	for i, g := range graphs {
		own[i] = sched.ScheduleAlone(g)
	}
	res := sched.Schedule(graphs, strat)
	if err := ptgsched.ValidateSchedule(res.Schedule); err != nil {
		return fmt.Errorf("invalid schedule: %w", err)
	}
	ev := res.Evaluate(own)

	fmt.Fprintf(w, "%-4s %-28s %8s %12s %12s %10s\n", "app", "graph", "beta", "M_own (s)", "M_multi (s)", "slowdown")
	for i, g := range graphs {
		fmt.Fprintf(w, "%-4d %-28s %8.3f %12.2f %12.2f %10.3f\n",
			i, g.Name, res.Betas[i], own[i], res.Makespan(i), ev.Slowdowns[i])
	}
	fmt.Fprintf(w, "\nglobal makespan : %.2f s\n", ev.Makespan)
	fmt.Fprintf(w, "unfairness      : %.4f\n", ev.Unfairness)

	if *gantt {
		fmt.Fprintln(w)
		if err := ptgsched.WriteGantt(w, res.Schedule, 100); err != nil {
			return err
		}
	}
	if *jsonOut {
		if err := ptgsched.WriteScheduleJSON(w, res.Schedule); err != nil {
			return err
		}
	}
	return nil
}

// campaignPoint lists a campaign spec's points or runs a single named one,
// reporting every strategy of the point's cell (and, for offline points,
// validating each schedule against the invariant oracle).
func campaignPoint(w io.Writer, specPath, pointKey string, list, gantt bool) error {
	e, err := cli.LoadCampaign(specPath)
	if err != nil {
		return err
	}

	if list {
		fmt.Fprintf(w, "campaign %s: %d cells, %d points\n", e.Spec.Name, len(e.Cells), e.NumPoints())
		for _, c := range e.Cells {
			fmt.Fprintf(w, "  cell %d: %s (%d strategies)\n", c.Index, c.Label, len(c.Config.Strategies))
		}
		fmt.Fprintf(w, "first point: %s\n", e.PointAt(0).Name)
		fmt.Fprintf(w, "last point : %s\n", e.PointAt(e.NumPoints()-1).Name)
		return nil
	}
	if pointKey == "" {
		return fmt.Errorf("-campaign needs -point <name|index> or -list")
	}

	p, err := e.FindPoint(pointKey)
	if err != nil {
		return err
	}
	cell := e.Cells[p.Cell]
	pf, graphs, releases := e.Materialize(p)
	fmt.Fprintf(w, "point    : %s (index %d, seed %d)\n", p.Name, p.Index, p.Seed)
	fmt.Fprintf(w, "platform : %s\n", pf)
	fmt.Fprintf(w, "cell     : %s\n", cell.Label)
	if cell.Policy != "" {
		fmt.Fprintf(w, "policy   : %s\n", cell.Policy)
	}
	fmt.Fprintf(w, "%-4s %-28s %10s\n", "app", "graph", "release")
	for i, g := range graphs {
		fmt.Fprintf(w, "%-4d %-28s %10.1f\n", i, g.Name, releases[i])
	}
	if tl := e.TimelineFor(p); len(tl) > 0 {
		fmt.Fprintf(w, "\nevent timeline (%d events, derived from spec digest and point index):\n", len(tl))
		for _, ev := range tl {
			switch ev.Kind {
			case ptgsched.EventClusterDown, ptgsched.EventClusterUp:
				fmt.Fprintf(w, "  t=%-10.2f %-12s cluster %s\n", ev.At, ev.Kind, pf.Clusters[ev.Cluster].Name)
			case ptgsched.EventSpeedChange:
				fmt.Fprintf(w, "  t=%-10.2f %-12s cluster %s ×%g\n", ev.At, ev.Kind, pf.Clusters[ev.Cluster].Name, ev.Factor)
			default:
				fmt.Fprintf(w, "  t=%-10.2f %-12s app %d\n", ev.At, ev.Kind, ev.App)
			}
		}
	}

	res := e.RunPoint(p)
	fmt.Fprintf(w, "\n%-12s %14s %14s %12s\n", "strategy", "makespan (s)", "unfairness", "rel")
	for s, label := range cell.Config.Labels {
		fmt.Fprintf(w, "%-12s %14.2f %14.4f %12.3f\n",
			label, res.Makespan[s], res.Unfairness[s], res.Rel[s])
	}

	// Offline points can additionally be re-scheduled for validation and
	// inspection under the cell's first strategy (dynamic points run
	// through the online engine, whose oracle the fuzz suite drives).
	if cell.Online == nil && cell.Policy == "" {
		sched := ptgsched.NewScheduler(pf)
		sres := sched.Schedule(graphs, cell.Config.Strategies[0])
		if err := ptgsched.ValidateSchedule(sres.Schedule); err != nil {
			return fmt.Errorf("invalid schedule: %w", err)
		}
		fmt.Fprintf(w, "\nschedule under %s validates against the invariant oracle\n",
			cell.Config.Labels[0])
		if gantt {
			fmt.Fprintln(w)
			if err := ptgsched.WriteGantt(w, sres.Schedule, 100); err != nil {
				return err
			}
		}
	}
	return nil
}
