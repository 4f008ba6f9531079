package vm_test

import (
	"testing"

	"ompssgo/internal/suite"
	"ompssgo/internal/vm"
	"ompssgo/machine"
	"ompssgo/ompss"
)

// BenchmarkSimCell is one Table 1 cell — an OmpSs simulation at suite.Small
// on the 32-core machine — reported per dispatched event: host ns/event, and
// goroutine switches per event from the VM's own counter. The events
// themselves are pinned by TestEventStreamsMatchRecorded; this is what they
// cost.
func BenchmarkSimCell(b *testing.B) {
	for _, app := range []string{"c-ray", "h264dec"} {
		b.Run(app, func(b *testing.B) {
			in, err := suite.New(app, suite.Small)
			if err != nil {
				b.Fatal(err)
			}
			var last *vm.VM
			vm.OnNew(func(v *vm.VM) { last = v })
			defer vm.OnNew(nil)
			var events, transfers uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ompss.RunSim(machine.Paper(32), func(rt *ompss.Runtime) { in.RunOmpSs(rt) }); err != nil {
					b.Fatal(err)
				}
				st := last.FinalStats()
				events += st.Events
				transfers += st.Transfers
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			b.ReportMetric(float64(transfers)/float64(events), "transfers/event")
		})
	}
}
