package fleet

import (
	"time"

	"repro/internal/chaos"
	"repro/internal/obs/monitor"
	"repro/internal/trace"
)

// replayChaosFunction is replayFunction's gated variant: arrivals pass
// through the chaos engine's admission loop before reaching the pool,
// served requests take their phase durations (and billing) from the
// engine's outcome instead of the member's static parameters, and churn
// waves flush the member's pool instances. Dropped arrivals fold a failed
// sample (no cost, no ledger row — the ledgers attribute dollars, and a
// drop bills nothing) plus the chaos.* series the scorecard windows over.
//
// Determinism: the engine's per-function state is driven sequentially by
// this function in arrival order, every chaos decision is a pure hash of
// (seed, function, sequence, purpose), and every accumulator below is the
// same kind the ungated path uses — so the worker-count byte-identity
// argument carries over unchanged.
func replayChaosFunction(cfg *Config, fn *Function, p *partial) {
	st := cfg.chaosEngine.Function(chaos.FnView{
		ID:           fn.ID,
		Arm:          fn.Arm,
		ColdInit:     fn.ColdInit,
		Exec:         fn.Exec,
		FallbackInit: fn.FallbackInit,
		MemoryMB:     fn.MemoryMB,
	})
	as := p.chaosArm(fn.Arm)
	next := fn.arrivalSource(cfg.Period)
	var seq uint64
	sink := newFnSink(cfg, fn, p)
	cs := &p.chaos // nil handles when telemetry is off

	gate := trace.PoolGate{
		Admit: func(at time.Duration) bool {
			as.Demand++
			admitted := st.Admit(at)
			cs.demand.Record(at, 1)
			if admitted {
				return true
			}
			d := st.Drop()
			switch d.Class {
			case "shed":
				as.Shed++
			case "unavailable":
				as.Unavailable++
			default:
				as.ThrottledDrops++
			}
			as.Retries += uint64(d.Retries)
			as.RetriesDenied += uint64(d.RetriesDenied)
			as.ThrottledAttempts += uint64(d.ThrottledAttempts)
			if d.Class != "shed" {
				p.errors++
			}
			end := at + d.E2E
			if end > p.latest {
				p.latest = end
			}
			if cfg.DisableTelemetry {
				return false
			}
			if d.Class == "shed" {
				cs.shed.Record(at, 1)
			} else {
				cs.bad.Record(at, 1)
			}
			if d.ThrottledAttempts > 0 {
				cs.throttled.Record(at, float64(d.ThrottledAttempts))
			}
			if d.RetriesDenied > 0 {
				cs.retryDenied.Record(at, float64(d.RetriesDenied))
			}
			s := monitor.Sample{
				Function: fn.Name,
				Class:    d.Class,
				E2E:      d.E2E,
				MemoryMB: fn.MemoryMB,
			}
			p.sink.Fold(end, &s)
			sink.arm.Fold(end, &s)
			return false
		},
		Busy:  st.Serve,
		Flush: st.FlushCut,
	}

	res := trace.SimulatePoolGated(next, fn.Exec, cfg.KeepAlive, gate, func(ev trace.PoolEvent) {
		out := st.Outcome()
		as.Served++
		as.Retries += uint64(out.Retries)
		as.RetriesDenied += uint64(out.RetriesDenied)
		as.ThrottledAttempts += uint64(out.ThrottledAttempts)
		if out.Fallback {
			as.Fallbacks++
		}
		if out.Routed {
			as.Routed++
		}
		if out.BreakerOpened {
			as.BreakerOpens++
		}
		if out.Hedged {
			as.Hedges++
			if out.HedgeWon {
				as.HedgeWins++
			}
		}
		as.CostUSD += out.CostUSD
		if out.Brownout {
			as.BrownoutServed++
			as.BrownoutCostUSD += out.CostUSD
		}

		at := ev.At + out.E2E
		p.invocations++
		if ev.Cold {
			p.coldStarts++
		}
		if at > p.latest {
			p.latest = at
		}
		if cfg.DisableTelemetry {
			seq++
			return
		}
		s := monitor.Sample{
			Function:   fn.Name,
			Cold:       ev.Cold,
			Class:      "ok",
			Init:       out.Init,
			Exec:       out.Exec,
			E2E:        out.E2E,
			BilledInit: out.BilledInit,
			BilledExec: out.BilledExec,
			Billed:     out.Billed,
			MemoryMB:   fn.MemoryMB,
			CostUSD:    out.CostUSD,
		}
		cs.served.Record(at, out.E2E.Seconds())
		if out.ThrottledAttempts > 0 {
			cs.throttled.Record(at, float64(out.ThrottledAttempts))
		}
		if out.RetriesDenied > 0 {
			cs.retryDenied.Record(at, float64(out.RetriesDenied))
		}
		if out.Fallback {
			cs.fallback.Record(at, 1)
		}
		if out.Hedged {
			cs.hedge.Record(at, 1)
			if out.HedgeWon {
				cs.hedgeWin.Record(at, 1)
			}
		}
		if out.BreakerOpened {
			cs.breakerOpen.Record(at, 1)
		}
		sink.served(at, &s, seq)
		seq++
	})
	if res.MaxInstances > p.peakLive {
		p.peakLive = res.MaxInstances
	}
	if fn.Arm != "" {
		p.armFns[fn.Arm]++
	}
}

// chaosSeries are a shard's handles on the chaos.* series the scorecard
// windows over.
type chaosSeries struct {
	demand, shed, bad, throttled, retryDenied      *monitor.Series
	served, fallback, hedge, hedgeWin, breakerOpen *monitor.Series
}

func newChaosSeries(st *monitor.Store) chaosSeries {
	return chaosSeries{
		demand:      st.Handle(chaos.SeriesDemand),
		shed:        st.Handle(chaos.SeriesShed),
		bad:         st.Handle(chaos.SeriesBad),
		throttled:   st.Handle(chaos.SeriesThrottled),
		retryDenied: st.Handle(chaos.SeriesRetryDenied),
		served:      st.Handle(chaos.SeriesServed),
		fallback:    st.Handle(chaos.SeriesFallback),
		hedge:       st.Handle(chaos.SeriesHedge),
		hedgeWin:    st.Handle(chaos.SeriesHedgeWin),
		breakerOpen: st.Handle(chaos.SeriesBreakerOpen),
	}
}
