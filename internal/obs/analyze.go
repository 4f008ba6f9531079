package obs

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// TaskInfo is one task reconstructed from the stream.
type TaskInfo struct {
	ID      uint64
	Label   string
	Worker  int // executing lane, -1 if never started
	Submit  int64
	Ready   int64
	Start   int64
	End     int64
	Exec    int64 // End-Start for complete tasks, 0 otherwise
	Skipped bool
	Preds   []uint64
	Succs   []uint64
	// Critical-path annotations (complete tasks only): CPUp is the longest
	// exec-weighted dependence chain ending at this task (inclusive),
	// Through the longest chain passing through it, Slack how much the
	// task could grow without lengthening the critical path.
	CPUp    int64
	Through int64
	Slack   int64
}

// Complete reports whether both endpoints of the task's execution were
// captured (a wrapped ring can lose either).
func (t *TaskInfo) Complete() bool { return t.Start >= 0 && t.End >= 0 }

// Name returns the task's label, or "task <id>" when it has none (or its
// submit event was dropped).
func (t *TaskInfo) Name() string {
	if t.Label != "" {
		return t.Label
	}
	return fmt.Sprintf("task %d", t.ID)
}

// WorkerStat aggregates one lane's activity.
type WorkerStat struct {
	Busy     int64 // summed task execution time
	Tasks    int
	Steals   int   // successful steals by this lane
	Idle     int64 // idle-enter → idle-exit spans
	Taskwait int64 // taskwait-enter → taskwait-exit spans (outermost)
}

// LabelStat aggregates execution time over tasks sharing a label.
type LabelStat struct {
	Label string
	Count int
	Total int64
}

// Analysis is the offline report computed from one trace: the paper-style
// instantaneous-parallelism profile, the critical path through the
// dependence graph, per-worker utilization and the steal matrix, and
// per-label execution totals.
type Analysis struct {
	Backend string
	Virtual bool
	Workers int

	Tasks  map[uint64]*TaskInfo
	Order  []uint64 // task IDs ascending (submission order)
	Edges  int
	Events int

	Submitted int // tasks with a submit event
	Executed  int // tasks with both start and end
	Skipped   int

	Span      int64 // ns from epoch to the last event
	TotalExec int64 // summed task execution time

	// Profile[l] is the time (ns) during which exactly l tasks were
	// running, 0 ≤ l ≤ MaxParallelism; the instantaneous-parallelism
	// profile integrates to Span, and its exec-weighted mean is
	// AvgParallelism = TotalExec/Span.
	Profile        []int64
	AvgParallelism float64
	MaxParallelism int

	// CPLen is the exec-weighted length of the longest dependence chain;
	// CPTasks lists that chain in execution order. PotentialSpeedup is
	// TotalExec/CPLen — the DAG's inherent parallelism, what the paper
	// reads off its dependence-structure discussions.
	CPLen            int64
	CPTasks          []*TaskInfo
	PotentialSpeedup float64

	ByWorker    []WorkerStat
	StealMatrix [][]int // [thief][victim] successful steals

	ByLabel []LabelStat // descending total exec

	Steals     int
	Renames    int
	Writebacks int

	// Distributed-backend transfer accounting (EvXfer / EvXferHit):
	// payload bytes actually moved between processes, and transfers the
	// per-worker version caches made unnecessary.
	Transfers     int
	TransferBytes int64
	TransferHits  int
	BytesAvoided  int64

	// Chain dispatches (EvChain): frames carrying several tasks to one
	// worker, and the tasks those frames covered.
	Chains       int
	ChainedTasks int

	// DroppedEvents is the exact number of ring-overwritten events; when
	// non-zero the reports cover a truncated stream (Truncated is set,
	// WriteReport says so and suggests SuggestedCapacity — the smallest
	// power-of-two ring that would have held the busiest lane's stream).
	DroppedEvents     uint64
	Truncated         bool
	Capacity          int
	SuggestedCapacity int
}

// Analyze merges the trace into per-task records and computes every
// report. It never fails on a truncated stream — incomplete tasks are
// excluded from timing aggregates and the drop count is surfaced.
func Analyze(tr *Trace) *Analysis {
	a := &Analysis{
		Backend:       tr.Backend,
		Virtual:       tr.Virtual,
		Workers:       tr.Workers,
		Tasks:         map[uint64]*TaskInfo{},
		Events:        len(tr.Events),
		DroppedEvents: tr.TotalDropped(),
	}
	a.Truncated = a.DroppedEvents > 0
	a.Capacity = tr.Capacity
	if a.Truncated {
		a.SuggestedCapacity = suggestedCapacity(tr)
	}
	a.ByWorker = make([]WorkerStat, tr.Workers)
	a.StealMatrix = make([][]int, tr.Workers)
	for i := range a.StealMatrix {
		a.StealMatrix[i] = make([]int, tr.Workers)
	}

	task := func(id uint64) *TaskInfo {
		t := a.Tasks[id]
		if t == nil {
			t = &TaskInfo{ID: id, Worker: -1, Submit: -1, Ready: -1, Start: -1, End: -1}
			a.Tasks[id] = t
			a.Order = append(a.Order, id)
		}
		return t
	}
	twDepth := make([]int, tr.Workers+1)
	twEnter := make([]int64, tr.Workers+1)
	idleFrom := make([]int64, tr.Workers+1)
	for i := range idleFrom {
		idleFrom[i] = -1
	}
	lane := func(w int32) int {
		if w >= 0 && int(w) < tr.Workers {
			return int(w)
		}
		return tr.Workers
	}

	for i := range tr.Events {
		ev := &tr.Events[i]
		if ev.At > a.Span {
			a.Span = ev.At
		}
		switch ev.Kind {
		case EvSubmit:
			t := task(ev.Task)
			t.Submit = ev.At
			t.Label = ev.Label
			a.Submitted++
		case EvEdge:
			t := task(ev.Task)
			t.Preds = append(t.Preds, ev.Arg)
			task(ev.Arg).Succs = append(task(ev.Arg).Succs, ev.Task)
			a.Edges++
		case EvReady:
			task(ev.Task).Ready = ev.At
		case EvStart:
			t := task(ev.Task)
			t.Start = ev.At
			t.Worker = int(ev.Worker)
		case EvEnd:
			task(ev.Task).End = ev.At
		case EvSkip:
			t := task(ev.Task)
			if !t.Skipped {
				t.Skipped = true
				a.Skipped++
			}
		case EvSteal:
			a.Steals++
			if th := int(ev.Worker); th >= 0 && th < tr.Workers {
				a.ByWorker[th].Steals++
				if v := int(ev.Arg); v >= 0 && v < tr.Workers {
					a.StealMatrix[th][v]++
				}
			}
		case EvIdleEnter:
			idleFrom[lane(ev.Worker)] = ev.At
		case EvIdleExit:
			l := lane(ev.Worker)
			if idleFrom[l] >= 0 && l < tr.Workers {
				a.ByWorker[l].Idle += ev.At - idleFrom[l]
			}
			idleFrom[l] = -1
		case EvTaskwaitEnter:
			l := lane(ev.Worker)
			if twDepth[l] == 0 {
				twEnter[l] = ev.At
			}
			twDepth[l]++
		case EvTaskwaitExit:
			l := lane(ev.Worker)
			if twDepth[l] > 0 {
				twDepth[l]--
				if twDepth[l] == 0 && l < tr.Workers {
					a.ByWorker[l].Taskwait += ev.At - twEnter[l]
				}
			}
		case EvRename:
			a.Renames++
		case EvWriteback:
			a.Writebacks++
		case EvXfer:
			a.Transfers++
			a.TransferBytes += int64(ev.Arg)
		case EvXferHit:
			a.TransferHits++
			a.BytesAvoided += int64(ev.Arg)
		case EvChain:
			a.Chains++
			a.ChainedTasks += int(ev.Arg)
		}
	}
	sort.Slice(a.Order, func(i, j int) bool { return a.Order[i] < a.Order[j] })

	// Per-task execution, per-worker busy time, label totals.
	labels := map[string]*LabelStat{}
	for _, id := range a.Order {
		t := a.Tasks[id]
		if !t.Complete() {
			continue
		}
		a.Executed++
		t.Exec = t.End - t.Start
		a.TotalExec += t.Exec
		if t.Worker >= 0 && t.Worker < tr.Workers {
			a.ByWorker[t.Worker].Busy += t.Exec
			a.ByWorker[t.Worker].Tasks++
		}
		ls := labels[t.Name()]
		if ls == nil {
			ls = &LabelStat{Label: t.Name()}
			labels[t.Name()] = ls
		}
		ls.Count++
		ls.Total += t.Exec
	}
	for _, ls := range labels {
		a.ByLabel = append(a.ByLabel, *ls)
	}
	sort.Slice(a.ByLabel, func(i, j int) bool {
		if a.ByLabel[i].Total != a.ByLabel[j].Total {
			return a.ByLabel[i].Total > a.ByLabel[j].Total
		}
		return a.ByLabel[i].Label < a.ByLabel[j].Label
	})

	a.computeProfile(tr)
	a.computeCriticalPath()
	if a.Span > 0 {
		a.AvgParallelism = float64(a.TotalExec) / float64(a.Span)
	}
	if a.CPLen > 0 {
		a.PotentialSpeedup = float64(a.TotalExec) / float64(a.CPLen)
	}
	return a
}

// computeProfile sweeps start/end endpoints and accumulates the time spent
// at each instantaneous concurrency level.
func (a *Analysis) computeProfile(tr *Trace) {
	type point struct {
		at    int64
		delta int
	}
	var pts []point
	for _, id := range a.Order {
		t := a.Tasks[id]
		if !t.Complete() {
			continue
		}
		pts = append(pts, point{t.Start, +1}, point{t.End, -1})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].at < pts[j].at })
	// All deltas at one instant apply together, so a handoff (one task
	// ending exactly where another starts) neither dips below zero nor
	// spikes the maximum with a zero-width level.
	profile := []int64{0}
	level, prev := 0, int64(0)
	for i := 0; i < len(pts); {
		at := pts[i].at
		profile[level] += at - prev
		prev = at
		for i < len(pts) && pts[i].at == at {
			level += pts[i].delta
			i++
		}
		for len(profile) <= level {
			profile = append(profile, 0)
		}
		if level > a.MaxParallelism {
			a.MaxParallelism = level
		}
	}
	if a.Span > prev {
		profile[0] += a.Span - prev
	}
	a.Profile = profile
}

// computeCriticalPath runs the exec-weighted longest-path passes. Task IDs
// ascend in submission order and every dependence edge points from an
// earlier ID to a later one, so ascending ID order is a topological order
// even when ring drops removed some events.
func (a *Analysis) computeCriticalPath() {
	var cpEnd *TaskInfo
	for _, id := range a.Order {
		t := a.Tasks[id]
		t.CPUp = t.Exec
		for _, p := range t.Preds {
			if pt := a.Tasks[p]; pt != nil && pt.CPUp+t.Exec > t.CPUp {
				t.CPUp = pt.CPUp + t.Exec
			}
		}
		if t.CPUp > a.CPLen {
			a.CPLen = t.CPUp
			cpEnd = t
		}
	}
	// Downward pass for slack: longest chain from each task to a sink.
	tails := map[uint64]int64{}
	for i := len(a.Order) - 1; i >= 0; i-- {
		t := a.Tasks[a.Order[i]]
		tail := t.Exec
		for _, s := range t.Succs {
			if st := a.Tasks[s]; st != nil && tails[s]+t.Exec > tail {
				tail = tails[s] + t.Exec
			}
		}
		tails[t.ID] = tail
		t.Through = t.CPUp + tail - t.Exec
		t.Slack = a.CPLen - t.Through
		if t.Slack < 0 {
			t.Slack = 0
		}
	}
	// Walk the chain back from the endpoint.
	for t := cpEnd; t != nil; {
		a.CPTasks = append(a.CPTasks, t)
		var next *TaskInfo
		for _, p := range t.Preds {
			if pt := a.Tasks[p]; pt != nil && pt.CPUp == t.CPUp-t.Exec && pt.CPUp > 0 {
				next = pt
				break
			}
		}
		t = next
	}
	for i, j := 0, len(a.CPTasks)-1; i < j; i, j = i+1, j-1 {
		a.CPTasks[i], a.CPTasks[j] = a.CPTasks[j], a.CPTasks[i]
	}
}

// suggestedCapacity returns the smallest power-of-two per-ring capacity
// that would have held the busiest ring's full stream — the actual ring
// size (capacity rounds up at init) plus the worst per-ring overwrite
// count, rounded up.
func suggestedCapacity(tr *Trace) int {
	ringCap := 1
	for ringCap < tr.Capacity {
		ringCap <<= 1
	}
	var worst uint64
	for _, d := range tr.Dropped {
		if d > worst {
			worst = d
		}
	}
	need := uint64(ringCap) + worst
	c := uint64(ringCap)
	for c < need {
		c <<= 1
	}
	return int(c)
}

func dur(ns int64) time.Duration { return time.Duration(ns) }

// WriteReport renders the analysis as the text report `ompss-trace
// analyze` prints: header, parallelism profile, critical path, worker
// table, steal matrix, and the top-N label aggregation.
func (a *Analysis) WriteReport(w io.Writer, topN int) error {
	clock := "wall-clock"
	if a.Virtual {
		clock = "virtual-time"
	}
	if _, err := fmt.Fprintf(w, "trace: %s backend, %d lanes, %d events (%s)\n",
		a.Backend, a.Workers, a.Events, clock); err != nil {
		return err
	}
	if a.Truncated {
		fmt.Fprintf(w, "WARNING: %d events overwritten by ring wraparound — timings below cover a truncated stream\n",
			a.DroppedEvents)
		fmt.Fprintf(w, "WARNING: rerun with a per-worker ring capacity of %d events (current %d) for a complete trace\n",
			a.SuggestedCapacity, a.Capacity)
	}
	fmt.Fprintf(w, "tasks: %d submitted, %d executed, %d skipped, %d dependence edges\n",
		a.Submitted, a.Executed, a.Skipped, a.Edges)
	fmt.Fprintf(w, "span %v, total exec %v, avg parallelism %.2f, max %d\n",
		dur(a.Span), dur(a.TotalExec), a.AvgParallelism, a.MaxParallelism)
	fmt.Fprintf(w, "critical path %v over %d tasks — potential speedup %.2fx\n",
		dur(a.CPLen), len(a.CPTasks), a.PotentialSpeedup)
	n := len(a.CPTasks)
	if n > topN {
		n = topN
	}
	for _, t := range a.CPTasks[:n] {
		fmt.Fprintf(w, "  cp %-24s exec %-12v cum %-12v lane %d\n", t.Name(), dur(t.Exec), dur(t.CPUp), t.Worker)
	}
	if len(a.CPTasks) > n {
		fmt.Fprintf(w, "  cp ... %d more\n", len(a.CPTasks)-n)
	}
	fmt.Fprintln(w, "parallelism profile (time at each concurrency level):")
	for l, ns := range a.Profile {
		if ns == 0 {
			continue
		}
		pct := 0.0
		if a.Span > 0 {
			pct = 100 * float64(ns) / float64(a.Span)
		}
		fmt.Fprintf(w, "  %2d running: %-12v %5.1f%%\n", l, dur(ns), pct)
	}
	fmt.Fprintln(w, "workers:")
	for i := range a.ByWorker {
		ws := &a.ByWorker[i]
		util := 0.0
		if a.Span > 0 {
			util = 100 * float64(ws.Busy) / float64(a.Span)
		}
		fmt.Fprintf(w, "  lane %-3d busy %-12v %5.1f%%  tasks %-6d steals %-5d idle %-12v taskwait %v\n",
			i, dur(ws.Busy), util, ws.Tasks, ws.Steals, dur(ws.Idle), dur(ws.Taskwait))
	}
	if a.Steals > 0 {
		fmt.Fprintln(w, "steal matrix (thief row × victim column):")
		for th := range a.StealMatrix {
			fmt.Fprintf(w, "  lane %-3d", th)
			for _, n := range a.StealMatrix[th] {
				fmt.Fprintf(w, " %6d", n)
			}
			fmt.Fprintln(w)
		}
	}
	n = len(a.ByLabel)
	if n > topN {
		n = topN
	}
	if n > 0 {
		fmt.Fprintf(w, "top %d tasks by exclusive time:\n", n)
		for _, ls := range a.ByLabel[:n] {
			mean := int64(0)
			if ls.Count > 0 {
				mean = ls.Total / int64(ls.Count)
			}
			fmt.Fprintf(w, "  %-24s n=%-6d total %-12v mean %v\n", ls.Label, ls.Count, dur(ls.Total), dur(mean))
		}
	}
	if a.Renames > 0 || a.Writebacks > 0 {
		fmt.Fprintf(w, "renaming: %d renames, %d writebacks\n", a.Renames, a.Writebacks)
	}
	if a.Transfers > 0 || a.TransferHits > 0 {
		fmt.Fprintf(w, "transfers: %d moved %d bytes, %d avoided by version caches (%d bytes)\n",
			a.Transfers, a.TransferBytes, a.TransferHits, a.BytesAvoided)
	}
	if a.Chains > 0 {
		fmt.Fprintf(w, "chains: %d dispatch frames covering %d tasks\n", a.Chains, a.ChainedTasks)
	}
	return nil
}
