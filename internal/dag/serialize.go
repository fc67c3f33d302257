package dag

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// jsonGraph is the wire format for graphs.
type jsonGraph struct {
	Name  string     `json:"name"`
	Tasks []jsonTask `json:"tasks"`
	Edges []jsonEdge `json:"edges"`
}

type jsonTask struct {
	Name      string  `json:"name"`
	DataElems float64 `json:"data_elems"`
	SeqGFlop  float64 `json:"seq_gflop"`
	Alpha     float64 `json:"alpha"`
}

type jsonEdge struct {
	From  int     `json:"from"`
	To    int     `json:"to"`
	Bytes float64 `json:"bytes"`
}

// MarshalJSON implements json.Marshaler.
func (g *Graph) MarshalJSON() ([]byte, error) {
	jg := jsonGraph{Name: g.Name}
	for _, t := range g.Tasks {
		jg.Tasks = append(jg.Tasks, jsonTask{t.Name, t.DataElems, t.SeqGFlop, t.Alpha})
	}
	for _, e := range g.Edges {
		jg.Edges = append(jg.Edges, jsonEdge{e.From.ID, e.To.ID, e.Bytes})
	}
	return json.Marshal(jg)
}

// UnmarshalJSON implements json.Unmarshaler. The decoded graph is validated
// (non-strictly: multiple entries/exits are allowed on import).
func (g *Graph) UnmarshalJSON(data []byte) error {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return err
	}
	// Fresh storage, but the generation moves on: a store that traced the
	// graph's earlier content must not take the decoded one for it.
	*g = Graph{Name: jg.Name, gen: g.gen + 1}
	for _, jt := range jg.Tasks {
		g.AddTask(jt.Name, jt.DataElems, jt.SeqGFlop, jt.Alpha)
	}
	for _, je := range jg.Edges {
		if je.From < 0 || je.From >= len(g.Tasks) || je.To < 0 || je.To >= len(g.Tasks) {
			return fmt.Errorf("dag: edge %d->%d out of range", je.From, je.To)
		}
		if _, err := g.AddEdge(g.Tasks[je.From], g.Tasks[je.To], je.Bytes); err != nil {
			return err
		}
	}
	return g.Validate(false)
}

// WriteDOT renders the graph in Graphviz DOT format, labelling each task
// with its name and sequential work and each edge with its data volume.
func (g *Graph) WriteDOT(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n  node [shape=box];\n", g.Name)
	for _, t := range g.Tasks {
		fmt.Fprintf(&b, "  t%d [label=\"%s\\n%.1f GFlop\"];\n", t.ID, t.Name, t.SeqGFlop)
	}
	for _, e := range g.Edges {
		fmt.Fprintf(&b, "  t%d -> t%d [label=\"%.0f MB\"];\n", e.From.ID, e.To.ID, e.Bytes/1e6)
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
