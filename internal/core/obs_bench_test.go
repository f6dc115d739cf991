package core_test

// Telemetry overhead guard (`make bench-obs`): the same end-to-end stream
// pipeline as BenchmarkDriverStream, run uninstrumented, with a registry,
// and with registry + span recorder. The nil case must track
// BenchmarkDriverStream (one pointer check per stage); the instrumented
// cases bound what -stats / -trace-out cost.

import (
	"bytes"
	"testing"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/lifeguard/addrcheck"
	"butterfly/internal/obs"
	"butterfly/internal/trace"
)

func BenchmarkDriverStreamObs(b *testing.B) {
	const nthreads = 8
	data := benchBytes(b, nthreads)
	for _, mode := range []string{"nil", "registry", "registry+trace"} {
		b.Run("instr="+mode, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var reg *obs.Registry
				var rec *obs.TraceRecorder
				switch mode {
				case "registry":
					reg = obs.New()
				case "registry+trace":
					reg = obs.New()
					rec = obs.NewTraceRecorder()
				}
				sr, err := trace.NewStreamReader(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				sr.Instrument(reg)
				d := &core.Driver{LG: addrcheck.New(0), Parallel: true, Obs: reg, Trace: rec}
				res, err := d.RunStream(epoch.NewStreamRows(sr))
				if err != nil {
					b.Fatal(err)
				}
				if res.Events == 0 {
					b.Fatal("empty run")
				}
				if reg != nil && reg.Counter(obs.MetricEpochs).Value() == 0 {
					b.Fatal("registry attached but nothing recorded")
				}
			}
		})
	}
}
