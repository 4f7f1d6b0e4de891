package engine

import (
	"math"

	"rhythm/internal/cluster"
	"rhythm/internal/interference"
	"rhythm/internal/metrics"
	"rhythm/internal/sim"
)

// tickReference is the pre-SoA tick, kept verbatim as the differential
// oracle (TestTickSoAMatchesScalar): one scalar loop over pods with no
// derived caches — per-instance allocation lookups, per-call smoothing
// coefficient, per-draw graph walks through Node.Latency. It shares the
// SoA rows as its backing state so a reference engine and a passes engine
// evolve the same fields, but reads everything the expensive way.
func (e *Engine) tickReference(now sim.Time, load float64) {
	dt := TickDt
	qps := load * e.cfg.Service.MaxLoadQPS
	measuring := now >= e.soa.warmupAt
	s := &e.soa

	// Per-pod sojourn distributions under current interference, cached
	// per operating point (see soaState.sojourn).
	for i, p := range e.pods {
		if e.cfg.Faults != nil && e.cfg.Faults.CrashTriggered(e.lastFaultScan, now, p.comp.Name) {
			e.crashBE(p, now)
		}
		lcDemand := p.comp.DemandAt(load)
		beDemand := p.beDemand()
		press := e.cfg.Model.Pressure(p.machine.Spec, lcDemand, beDemand)
		muSkew, sigmaSkew := 1.0, 1.0
		freqCap := 0.0
		if e.cfg.Faults != nil {
			if m := e.cfg.Faults.InterferenceMul(now, p.comp.Name); m != 1 {
				press = press.Scale(m)
			}
			freqCap = e.cfg.Faults.FreqCapGHz(now, p.comp.Name)
			muSkew, sigmaSkew = e.cfg.Faults.Drift(now, p.comp.Name)
		}
		inflate, cvInflate := e.cfg.Model.Inflation(p.comp, press)
		if freqCap > 0 && freqCap < p.machine.Spec.MaxGHz {
			inflate *= interference.FreqInflation(p.comp, freqCap, p.machine.Spec.MaxGHz)
		}
		// The scalar smooth recomputed alpha per call.
		alpha := 1 - math.Exp(-dt.Seconds()/inertiaTau.Seconds())
		s.inflate[i] += (inflate - s.inflate[i]) * alpha
		s.cvInfl[i] += (cvInflate - s.cvInfl[i]) * alpha
		inflate, cvInflate = s.inflate[i], s.cvInfl[i]
		if key := [5]float64{qps, inflate, cvInflate, muSkew, sigmaSkew}; !s.sjOK[i] || key != s.sjKey[i] {
			s.sojourn[i] = p.comp.Station.At(qps, inflate, cvInflate, 1)
			mu, sigma := s.sojourn[i].LogParams()
			if muSkew != 1 {
				mu += math.Log(muSkew)
			}
			if sigmaSkew != 1 {
				sigma *= sigmaSkew
			}
			s.sjMu[i], s.sjSigma[i] = mu, sigma
			s.sjKey[i], s.sjOK[i] = key, true
		}
		sj := s.sojourn[i]

		beAlloc := p.runningBEAlloc()
		lcBusy := float64(p.comp.Cores) * sj.Utilization
		cpuUtil := (lcBusy + float64(beAlloc.Cores)) / float64(p.machine.Spec.Cores)
		servedBW := lcDemand[cluster.ResMemBW] + minf(beDemand[cluster.ResMemBW], p.machine.Spec.MemBWGBs-lcDemand[cluster.ResMemBW])
		mbwUtil := sim.Clamp(servedBW/p.machine.Spec.MemBWGBs, 0, 1)
		if measuring {
			s.cpu[i].Observe(cpuUtil, dt)
			s.mbw[i].Observe(mbwUtil, dt)
		}

		sat := 1.0
		if beDemand[cluster.ResMemBW] > 0 {
			avail := p.machine.Spec.MemBWGBs - lcDemand[cluster.ResMemBW]
			if avail < 0 {
				avail = 0
			}
			sat = minf(sat, avail/beDemand[cluster.ResMemBW])
		}
		beFreq := p.agent.BEFrequency()
		if freqCap > 0 && freqCap < beFreq {
			beFreq = freqCap
		}
		freqScale := beFreq / p.machine.Spec.MaxGHz
		beRate := 0.0
		for _, in := range p.instances {
			alloc := p.machine.Alloc(cluster.Owner{Kind: cluster.OwnerBE, Name: in.ID})
			if alloc == nil {
				continue
			}
			instSat := sat
			if wanted := in.Spec.PerCore[cluster.ResLLC] * float64(alloc.Cores); wanted > 0 {
				if cacheSat := float64(alloc.LLCWays) / wanted; cacheSat < instSat {
					if cacheSat < 0.2 {
						cacheSat = 0.2
					}
					instSat = cacheSat
				}
			}
			rate := in.Rate(alloc.Cores, instSat) * freqScale
			done := in.Advance(rate, dt.Hours())
			p.stats.Completions += done
			if done > 0 {
				p.obsCompletions.Add(uint64(done))
			}
			beRate += rate
		}
		if measuring {
			s.bet[i].Observe(beRate, dt)
			s.emu[i].Observe(metrics.EMU(load, beRate), dt)
		}
		p.stats.BEThroughput = s.bet[i].Mean()
		p.stats.CPUUtil = s.cpu[i].Mean()
		p.stats.MemBWUtil = s.mbw[i].Mean()
		p.stats.EMU = s.emu[i].Mean()
	}

	// End-to-end latency sampling through the call graph, one walk per
	// draw. The walk draws from each pod's cached sojourn distribution in
	// traversal order (the RNG stream consumption order is part of the
	// determinism contract, DESIGN.md §7) and appends sojourn samples as
	// it goes.
	sample := func(c string) float64 {
		i := e.podByName[c].idx
		v := math.Exp(s.sjMu[i] + s.sjSigma[i]*e.rng.NormFloat64())
		if e.cfg.CollectSamples {
			e.pods[i].stats.SojournSamples = append(e.pods[i].stats.SojournSamples, v)
		}
		return v
	}
	for i := 0; i < SamplesPerTick; i++ {
		lat := e.cfg.Service.Graph.Latency(sample)
		e.tail.Add(now, lat)
		if e.cfg.CollectSamples {
			e.stats.E2ESamples = append(e.stats.E2ESamples, lat)
		}
	}
	e.finishTick(now, load, qps, measuring)
}
