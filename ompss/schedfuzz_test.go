package ompss_test

// Schedule fuzzing: seeded random task DAGs run under both backends across
// many schedules (worker counts, wait modes, policy knobs, RNG seeds),
// asserting — inside the task bodies — that the runtime established
// happens-before for every In/Out and commutative pair, and — after the
// drain — that the final state is identical across every schedule and equal
// to the sequential model.
//
// The happens-before checks are deliberately made of PLAIN (non-atomic)
// loads and stores: under `go test -race` (CI's race job runs this package)
// any dependence edge the scheduler fails to enforce surfaces as a data
// race on the value cells, in addition to the value assertions failing.
// Failures shrink: the harness re-generates the same seeded program at
// shrinking prefix lengths and reports the smallest still-failing prefix.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ompssgo/machine"
	"ompssgo/ompss"
)

// fuzz access modes.
const (
	fzIn = iota
	fzOut
	fzInOut
	fzCommutative
)

type fuzzAccess struct {
	key  int
	mode int
	// expectVal is the value the task must observe in vals[key]: the write
	// index of its program-order last writer (checked for every mode — all
	// four are ordered after the last writer).
	expectVal int64
	// expectComm is the commutative-increment count the task must observe
	// in comms[key]; -1 for commutative accesses (unordered among
	// themselves, so the intermediate count is schedule-dependent).
	expectComm int64
	// writeVal is the value a writer stores into vals[key]; 0 for readers.
	writeVal int64
}

type fuzzTask struct {
	accesses []fuzzAccess
	priority int
}

// fuzzProg is one generated program: groups are submitted in order, task by
// task, so program order equals generation order. (Groups of several tasks
// date from a bulk-submission API, and a key draw per third task from a
// retired placement hint; the generator keeps drawing both so each seed
// still builds the DAG it always built.)
type fuzzProg struct {
	seed      int64
	nKeys     int
	groups    [][]fuzzTask
	finalVal  []int64 // model: last write index per key
	finalComm []int64 // model: commutative task count per key
	nTasks    int
}

// genProg deterministically generates the program for a seed, truncated to
// at most maxGroups groups (the shrink lever).
func genProg(seed int64, maxGroups int) *fuzzProg {
	rng := rand.New(rand.NewSource(seed))
	p := &fuzzProg{
		seed:  seed,
		nKeys: 3 + rng.Intn(5),
	}
	lastVal := make([]int64, p.nKeys)
	commCnt := make([]int64, p.nKeys)
	widx := make([]int64, p.nKeys)
	nGroups := 12 + rng.Intn(14)
	if nGroups > maxGroups {
		nGroups = maxGroups
	}
	for g := 0; g < nGroups; g++ {
		size := 1
		if rng.Intn(3) == 0 { // every third group holds several tasks
			size = 2 + rng.Intn(3)
		}
		var group []fuzzTask
		for i := 0; i < size; i++ {
			var t fuzzTask
			if rng.Intn(4) == 0 {
				t.priority = 1 + rng.Intn(3)
			}
			if rng.Intn(3) == 0 {
				rng.Intn(p.nKeys) // the retired placement hint's key
			}
			nAcc := 1 + rng.Intn(3)
			used := map[int]bool{}
			for a := 0; a < nAcc; a++ {
				k := rng.Intn(p.nKeys)
				if used[k] {
					continue
				}
				used[k] = true
				acc := fuzzAccess{key: k, mode: rng.Intn(4), expectVal: lastVal[k]}
				switch acc.mode {
				case fzIn:
					acc.expectComm = commCnt[k]
				case fzOut, fzInOut:
					acc.expectComm = commCnt[k]
					widx[k]++
					acc.writeVal = widx[k]
					lastVal[k] = widx[k]
				case fzCommutative:
					acc.expectComm = -1
					commCnt[k]++
				}
				t.accesses = append(t.accesses, acc)
			}
			group = append(group, t)
			p.nTasks++
		}
		p.groups = append(p.groups, group)
	}
	p.finalVal = lastVal
	p.finalComm = commCnt
	return p
}

// fuzzCells is the shared state one schedule runs against. Padding keeps
// each cell on its own cache line so the only cross-task interactions are
// the intended ones.
type fuzzCells struct {
	vals  []paddedCell
	comms []paddedCell

	mu         sync.Mutex
	violations []string
}

type paddedCell struct {
	v int64
	_ [56]byte
}

func newFuzzCells(nKeys int) *fuzzCells {
	return &fuzzCells{vals: make([]paddedCell, nKeys), comms: make([]paddedCell, nKeys)}
}

func (c *fuzzCells) violate(format string, args ...any) {
	c.mu.Lock()
	c.violations = append(c.violations, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

// body builds the task body for one fuzz task: every access checks the
// happens-before expectations with plain loads, then applies its plain
// writes. taskIdx only labels violations.
func (c *fuzzCells) body(t fuzzTask, taskIdx int) func(*ompss.TC) {
	return func(*ompss.TC) {
		for _, a := range t.accesses {
			if got := c.vals[a.key].v; got != a.expectVal {
				c.violate("task %d key %d (%d): saw write %d, program order requires %d",
					taskIdx, a.key, a.mode, got, a.expectVal)
			}
			if a.expectComm >= 0 {
				if got := c.comms[a.key].v; got != a.expectComm {
					c.violate("task %d key %d (%d): saw %d commutative updates, program order requires %d",
						taskIdx, a.key, a.mode, got, a.expectComm)
				}
			}
			switch a.mode {
			case fzOut, fzInOut:
				c.vals[a.key].v = a.writeVal
			case fzCommutative:
				c.comms[a.key].v++ // mutual exclusion is the runtime's job
			}
		}
	}
}

// fuzzClauses translates one fuzz task's access list into clause form
// against a registered key set.
func fuzzClauses(t fuzzTask, keys []*ompss.Datum) []ompss.Clause {
	var cl []ompss.Clause
	for _, a := range t.accesses {
		switch a.mode {
		case fzIn:
			cl = append(cl, ompss.In(keys[a.key]))
		case fzOut:
			cl = append(cl, ompss.Out(keys[a.key]))
		case fzInOut:
			cl = append(cl, ompss.InOut(keys[a.key]))
		case fzCommutative:
			cl = append(cl, ompss.Commutative(keys[a.key]))
		}
	}
	if t.priority > 0 {
		cl = append(cl, ompss.Priority(t.priority))
	}
	return cl
}

// submitGroup submits one program group task by task and returns the task
// index after the group. Factored out of run so the concurrent-session fuzz
// can interleave groups from many programs.
func (c *fuzzCells) submitGroup(group []fuzzTask, idx int, rt ompss.API, keys []*ompss.Datum) int {
	for _, t := range group {
		rt.Task(c.body(t, idx), fuzzClauses(t, keys)...)
		idx++
	}
	return idx
}

// registerKeys registers the program's cells on the given surface.
func (c *fuzzCells) registerKeys(p *fuzzProg, rt ompss.API) []*ompss.Datum {
	keys := make([]*ompss.Datum, p.nKeys)
	for k := range keys {
		keys[k] = rt.Register(&c.vals[k])
	}
	return keys
}

// run executes the program once against an already-running spawning surface
// — the whole runtime or one session (the concurrent-session isolation fuzz
// runs one program per session) — and returns the observed violations plus
// the final cell state.
func (c *fuzzCells) run(p *fuzzProg, rt ompss.API) {
	keys := c.registerKeys(p, rt)
	idx := 0
	for _, group := range p.groups {
		idx = c.submitGroup(group, idx, rt, keys)
	}
	rt.Taskwait()
}

// checkFinal appends violations if the drained state differs from the model.
func (c *fuzzCells) checkFinal(p *fuzzProg) {
	for k := 0; k < p.nKeys; k++ {
		if c.vals[k].v != p.finalVal[k] {
			c.violate("final vals[%d] = %d, model %d", k, c.vals[k].v, p.finalVal[k])
		}
		if c.comms[k].v != p.finalComm[k] {
			c.violate("final comms[%d] = %d, model %d", k, c.comms[k].v, p.finalComm[k])
		}
	}
}

// fuzzSchedule is one schedule configuration.
type fuzzSchedule struct {
	name   string
	native bool
	cores  int // sim cores
	opts   []ompss.Option
}

// onOff spells a boolean knob as its Tuning value.
func onOff(on bool) ompss.Setting {
	if on {
		return ompss.On
	}
	return ompss.Off
}

// waitName spells a wait mode in schedule names.
func waitName(m ompss.WaitMode) string {
	if m == ompss.Blocking {
		return "blocking"
	}
	return "polling"
}

// fuzzLocality is the policy-knob option of one schedule.
func fuzzLocality(on bool) ompss.Option {
	return ompss.WithTuning(ompss.Tuning{Locality: onOff(on)})
}

// nativeGrid is the size of the native workers × wait mode × locality grid:
// the first nativeGrid schedules of fuzzSchedules cover it once each.
const nativeGrid = 4 * 2 * 2

// fuzzSchedules enumerates the 58-schedule battery: 40 native configurations
// walking the full workers (1–4) × wait mode × locality grid, each cell at
// two or three RNG seeds; 10 deterministic simulator schedules walking the
// cores × locality grid; and 8 (4 native, 4 simulated) under a run-ahead
// window of 1 and 2 tasks, where the creator executes a task at nearly
// every spawn.
func fuzzSchedules() []fuzzSchedule {
	var out []fuzzSchedule
	for i := 0; i < 40; i++ {
		g := i % nativeGrid
		workers := 1 + g%4
		wait := ompss.Polling
		if g/4%2 == 1 {
			wait = ompss.Blocking
		}
		locality := g/8 == 0
		out = append(out, fuzzSchedule{
			name:   fmt.Sprintf("native/w%d-%s-loc%v-seed%d", workers, waitName(wait), locality, 1000+i),
			native: true,
			opts: []ompss.Option{
				ompss.Workers(workers),
				ompss.Wait(wait),
				fuzzLocality(locality),
				ompss.Seed(int64(1000 + i)),
			},
		})
	}
	for i := 0; i < 10; i++ {
		cores := []int{1, 2, 4, 8}[i%4]
		locality := i%8 < 4
		out = append(out, fuzzSchedule{
			name:  fmt.Sprintf("sim/c%d-loc%v-seed%d", cores, locality, 77+i),
			cores: cores,
			opts: []ompss.Option{
				fuzzLocality(locality),
				ompss.Seed(int64(77 + i)),
			},
		})
	}
	for _, window := range []int{1, 2} {
		for _, workers := range []int{1, 3} {
			wait := ompss.Polling
			if workers == 3 {
				wait = ompss.Blocking
			}
			opts := []ompss.Option{ompss.Wait(wait), ompss.MaxInFlight(window)}
			out = append(out, fuzzSchedule{
				name:   fmt.Sprintf("native/w%d-%s-window%d", workers, waitName(wait), window),
				native: true,
				opts:   append(opts, ompss.Workers(workers)),
			}, fuzzSchedule{
				name:  fmt.Sprintf("sim/c%d-%s-window%d", workers, waitName(wait), window),
				cores: workers,
				opts:  opts,
			})
		}
	}
	return out
}

// runSchedule executes the program under one schedule and returns any
// violations (happens-before or final-state).
func runSchedule(p *fuzzProg, sc fuzzSchedule) []string {
	cells := newFuzzCells(p.nKeys)
	if sc.native {
		rt := ompss.New(sc.opts...)
		cells.run(p, rt)
		rt.Shutdown()
	} else {
		if _, err := ompss.RunSim(machine.Paper(sc.cores), func(rt *ompss.Runtime) {
			cells.run(p, rt)
		}, sc.opts...); err != nil {
			cells.violate("sim error: %v", err)
		}
	}
	cells.checkFinal(p)
	cells.mu.Lock()
	defer cells.mu.Unlock()
	return cells.violations
}

// shrink searches for the smallest group-prefix of seed's program that still
// fails under sc, rerunning each candidate a few times to ride out
// schedule-dependent failures. Returns the prefix length and a sample
// violation.
func shrink(seed int64, sc fuzzSchedule, fullGroups int) (int, string) {
	fails := func(m int) (bool, string) {
		p := genProg(seed, m)
		for try := 0; try < 5; try++ {
			if v := runSchedule(p, sc); len(v) > 0 {
				return true, v[0]
			}
		}
		return false, ""
	}
	best, sample := fullGroups, ""
	for m := 1; m <= fullGroups; m++ {
		if bad, v := fails(m); bad {
			best, sample = m, v
			break
		}
	}
	return best, sample
}

// TestScheduleFuzz is the schedule-fuzz battery (see the file comment).
func TestScheduleFuzz(t *testing.T) {
	seeds := []int64{1, 20260726, 0x5eed}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			p := genProg(seed, 1<<30)
			if p.nTasks == 0 {
				t.Fatal("degenerate program")
			}
			for _, sc := range fuzzSchedules() {
				violations := runSchedule(p, sc)
				if len(violations) == 0 {
					continue
				}
				m, sample := shrink(seed, sc, len(p.groups))
				if sample == "" {
					sample = violations[0]
				}
				t.Fatalf("schedule %s: %d violations; first: %s\n"+
					"shrunk reproducer: genProg(%d, %d) under the same schedule (%s)",
					sc.name, len(violations), violations[0], seed, m, sample)
			}
		})
	}
}

// bodyVersioned is the rename-aware task body: accesses resolve their
// bound instance through tc.Data, so the same program is value-correct
// whether or not the runtime renames. Two checks are dropped relative to
// body, because renaming legitimately invalidates them: an Out writer
// starts on a fresh private instance (there is no prior value for it to
// observe), and commutative-counter expectations order across instances
// (readers of an old instance are deliberately unordered against updaters
// of a newer one). The final-state check in checkFinal — canonical values
// after writeback against the sequential model — covers both modes.
func (c *fuzzCells) bodyVersioned(t fuzzTask, taskIdx int, keys []*ompss.Datum) func(*ompss.TC) {
	return func(tc *ompss.TC) {
		for _, a := range t.accesses {
			cell := tc.Data(keys[a.key]).(*paddedCell)
			switch a.mode {
			case fzIn, fzInOut, fzCommutative:
				if got := cell.v; got != a.expectVal {
					c.violate("task %d key %d (%d): saw write %d, program order requires %d",
						taskIdx, a.key, a.mode, got, a.expectVal)
				}
			}
			switch a.mode {
			case fzOut, fzInOut:
				cell.v = a.writeVal
			case fzCommutative:
				c.comms[a.key].v++ // mutual exclusion is the runtime's job
			}
		}
	}
}

// runVersioned is run with every key registered as a renameable datum and
// the rename-aware bodies; identical programs run with Tuning.Renaming on
// and off through this path and must drain to identical final state.
func (c *fuzzCells) runVersioned(p *fuzzProg, rt *ompss.Runtime) {
	keys := make([]*ompss.Datum, p.nKeys)
	for k := range keys {
		keys[k] = rt.Register(&c.vals[k]).EnableRenaming(nil,
			func() any { return new(paddedCell) },
			func(dst, src any) { dst.(*paddedCell).v = src.(*paddedCell).v })
	}
	idx := 0
	for _, group := range p.groups {
		for _, t := range group {
			rt.Task(c.bodyVersioned(t, idx, keys), fuzzClauses(t, keys)...)
			idx++
		}
	}
	rt.Taskwait()
}

// runRenameSchedule executes the versioned program under one schedule with
// the renaming knob set, returning violations plus the drained state and
// rename activity.
func runRenameSchedule(p *fuzzProg, sc fuzzSchedule, renaming bool) (violations []string, finals []int64, renamed uint64) {
	cells := newFuzzCells(p.nKeys)
	opts := append(append([]ompss.Option{}, sc.opts...), ompss.WithTuning(ompss.Tuning{Renaming: onOff(renaming)}))
	if sc.native {
		rt := ompss.New(opts...)
		cells.runVersioned(p, rt)
		renamed = rt.Stats().Graph.Renamed
		rt.Shutdown()
	} else {
		if _, err := ompss.RunSim(machine.Paper(sc.cores), func(rt *ompss.Runtime) {
			cells.runVersioned(p, rt)
			renamed = rt.Stats().Graph.Renamed
		}, opts...); err != nil {
			cells.violate("sim error: %v", err)
		}
	}
	cells.checkFinal(p)
	for k := 0; k < p.nKeys; k++ {
		finals = append(finals, cells.vals[k].v, cells.comms[k].v)
	}
	cells.mu.Lock()
	defer cells.mu.Unlock()
	return cells.violations, finals, renamed
}

// TestScheduleFuzzRenaming runs the fuzz DAGs through the versioned bodies
// with dependence renaming on and off and requires both to drain to the
// model's final state (hence to identical state): renaming may only break
// anti-dependences, never values. The renamed counter is checked non-zero
// across the battery so the axis cannot silently degrade to a no-op.
func TestScheduleFuzzRenaming(t *testing.T) {
	seeds := []int64{1, 0x5eed}
	if testing.Short() {
		seeds = seeds[:1]
	}
	// A subset of the battery: renaming decisions live in the shared
	// dependence tracker, so one pass over the native grid and both
	// backends suffice; more seeds buy nothing.
	schedules := fuzzSchedules()[:nativeGrid]
	schedules = append(schedules, fuzzSchedule{name: "sim/c4", cores: 4},
		fuzzSchedule{name: "sim/c8-loc", cores: 8, opts: []ompss.Option{ompss.WithTuning(ompss.Tuning{Locality: ompss.Off})}})
	var totalRenamed uint64
	for _, seed := range seeds {
		p := genProg(seed, 1<<30)
		for _, sc := range schedules {
			vOn, fOn, renamed := runRenameSchedule(p, sc, true)
			if len(vOn) > 0 {
				t.Fatalf("seed %d schedule %s renaming=on: %d violations; first: %s",
					seed, sc.name, len(vOn), vOn[0])
			}
			vOff, fOff, _ := runRenameSchedule(p, sc, false)
			if len(vOff) > 0 {
				t.Fatalf("seed %d schedule %s renaming=off: %d violations; first: %s",
					seed, sc.name, len(vOff), vOff[0])
			}
			if fmt.Sprint(fOn) != fmt.Sprint(fOff) {
				t.Fatalf("seed %d schedule %s: final state diverges on/off: %v vs %v",
					seed, sc.name, fOn, fOff)
			}
			totalRenamed += renamed
		}
	}
	if totalRenamed == 0 {
		t.Fatal("no rename fired across the whole battery — the axis is dead")
	}
}

// TestScheduleFuzzModelSelfCheck pins the generator: the model must be a
// pure function of the seed, and a prefix of the program must carry the
// same expectations as the full program's first groups (the property the
// shrinker relies on).
func TestScheduleFuzzModelSelfCheck(t *testing.T) {
	a := genProg(42, 1<<30)
	b := genProg(42, 1<<30)
	if fmt.Sprintf("%+v", a.groups) != fmt.Sprintf("%+v", b.groups) {
		t.Fatal("generator is not deterministic per seed")
	}
	pre := genProg(42, 3)
	if len(pre.groups) != 3 {
		t.Fatalf("prefix has %d groups, want 3", len(pre.groups))
	}
	for g := range pre.groups {
		if fmt.Sprintf("%+v", pre.groups[g]) != fmt.Sprintf("%+v", a.groups[g]) {
			t.Fatalf("group %d differs between prefix and full program", g)
		}
	}
}
