package core

import (
	"testing"

	"godsm/internal/pagemem"
)

// hitPages is the working set of the access-hit measurements: small enough
// to stay resident on one processor, large enough that consecutive
// accesses land on different pages.
const hitPages = 16

// onHitPages runs body on the only thread of a one-processor system after
// writing every page of a hitPages-page region, so each page is resident
// and twinned and every access body makes is a hit: a read or write that
// needs no protocol action.
func onHitPages(cfg Config, body func(e *Env, base Addr)) {
	cfg.Procs, cfg.ThreadsPerProc = 1, 1
	sys := NewSystem(cfg)
	base := sys.Alloc.AllocPages(hitPages)
	sys.Run(func(e *Env) {
		for p := 0; p < hitPages; p++ {
			e.WriteF64(base+Addr(p*pagemem.PageSize), 0)
		}
		body(e, base)
	})
}

// hitAddr spreads access i over the hit region: each access lands on the
// page after its predecessor's, and successive sweeps step through each
// page's words.
func hitAddr(base Addr, i int) Addr {
	return base + Addr((i%hitPages)*pagemem.PageSize+(i/hitPages%512)*8)
}

var sinkF64 float64

// BenchmarkEnvAccessHit measures the Env.access hit path that every
// simulated shared access takes, with and without the race detector's
// per-access hook.
func BenchmarkEnvAccessHit(b *testing.B) {
	for _, bc := range []struct {
		name  string
		race  bool
		write bool
	}{
		{"read", false, false},
		{"write", false, true},
		{"read-racecheck", true, false},
		{"write-racecheck", true, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := smallConfig(1, 1)
			cfg.RaceCheck = bc.race
			onHitPages(cfg, func(e *Env, base Addr) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if bc.write {
						e.WriteF64(hitAddr(base, i), 1)
					} else {
						sinkF64 = e.ReadF64(hitAddr(base, i))
					}
				}
				b.StopTimer()
			})
		})
	}
}

// TestAccessHitAllocs pins the access path's steady state: a read or write
// of a resident page allocates nothing. It is the deterministic stand-in
// for the hit path's host cost.
func TestAccessHitAllocs(t *testing.T) {
	onHitPages(smallConfig(1, 1), func(e *Env, base Addr) {
		i := 0
		read := testing.AllocsPerRun(1000, func() {
			sinkF64 = e.ReadF64(hitAddr(base, i))
			i++
		})
		write := testing.AllocsPerRun(1000, func() {
			e.WriteF64(hitAddr(base, i), 2)
			i++
		})
		if read != 0 || write != 0 {
			t.Errorf("resident hit allocates: read %.2f, write %.2f per access, want 0", read, write)
		}
	})
}
