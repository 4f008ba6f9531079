package main

import (
	"testing"

	"ompssgo/internal/suite"
	"ompssgo/ompss"
	"ompssgo/pthread"
)

// inputDigests sets every workload up at Small scale and returns the
// fingerprints of what it generated: input checksums and, for serve-mix,
// the request schedule.
func inputDigests(t *testing.T, seed int64) map[string]string {
	t.Helper()
	e := &env{W: workers(), Seed: seed, Small: true}
	out := map[string]string{}
	for _, w := range workloads {
		wl, err := newWorkload(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		if err := wl.setup(e); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		out[w.Name] = wl.digest()
		wl.teardown()
	}
	return out
}

func TestSeedDecidesInputs(t *testing.T) {
	a, again, b := inputDigests(t, 1), inputDigests(t, 1), inputDigests(t, 2)
	for _, w := range workloads {
		if a[w.Name] != again[w.Name] {
			t.Errorf("%s: seed 1 generated %s, then %s", w.Name, a[w.Name], again[w.Name])
		}
		if a[w.Name] == b[w.Name] {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs (%s)", w.Name, a[w.Name])
		}
	}
}

// Every seeded program still computes its own sequential reference in its
// Pthreads and OmpSs variants: the seed changes inputs, never correctness.
func TestSeededProgramsMatchRunSeq(t *testing.T) {
	const seed = 0x5eed
	var progs []*part
	for _, name := range suite.Names() {
		in, err := seededApp(name, suite.Small, seed)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, &part{name: name, inst: in})
	}
	progs = append(progs,
		&part{name: "chains", inst: newChainsProg(8, 4000, seed)},
		&part{name: "readers", inst: newReadersProg(200, 3, seed), opts: readersOpts()})
	for _, p := range progs {
		p.reference()
		rt := ompss.New(append([]ompss.Option{ompss.Workers(2)}, p.opts...)...)
		got := p.inst.RunOmpSs(rt)
		rt.Shutdown()
		if got != p.want {
			t.Errorf("%s: RunOmpSs %#x, RunSeq %#x", p.name, got, p.want)
		}
		if got := p.inst.RunPthreads(pthread.Native(2).Main()); got != p.want {
			t.Errorf("%s: RunPthreads %#x, RunSeq %#x", p.name, got, p.want)
		}
		if _, _, err := simCell(p, 8); err != nil {
			t.Error(err)
		}
	}
}
