package obs

import (
	"fmt"
	"io"
)

// WriteDOT exports the trace's task graph in Graphviz DOT format: one node
// per submitted task (its label, annotated with the executing lane) and one
// edge per recorded dependence, both in task-ID order. It is the structural
// view the timeline exporters do not give — the pipeline of the paper's
// Listing 1 becomes visible as a graph. Tasks whose submit event a wrapped
// ring lost are omitted, as are edges to or from them.
func WriteDOT(w io.Writer, tr *Trace) error {
	a := Analyze(tr)
	var err error
	printf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	printf("digraph taskgraph {\n  rankdir=TB; node [shape=box, fontsize=10];\n")
	for _, id := range a.Order {
		t := a.Tasks[id]
		if t.Submit < 0 {
			continue
		}
		if t.Worker >= 0 {
			printf("  t%d [label=%q, tooltip=\"lane %d\"];\n", id, t.Name(), t.Worker)
		} else {
			printf("  t%d [label=%q];\n", id, t.Name())
		}
	}
	for _, id := range a.Order {
		t := a.Tasks[id]
		if t.Submit < 0 {
			continue
		}
		for _, p := range t.Preds {
			if a.Tasks[p].Submit >= 0 {
				printf("  t%d -> t%d;\n", p, id)
			}
		}
	}
	printf("}\n")
	return err
}
