package experiments

import (
	"bytes"
	"fmt"
	"math"
	"strings"

	"rhythm/internal/calibration"
	"rhythm/internal/obs"
	"rhythm/internal/sim"
	"rhythm/internal/workload"
)

func init() {
	register(Experiment{ID: "calibration", OnDemand: true,
		Title: "Self-calibration fixed point and drift-fit recovery (scenario, not in `run all`)",
		Run:   calibrationExperiment})
}

// calibrationExperiment closes the observability loop analytically: it
// builds the E-commerce components' solo sojourn tails on a private
// (never-installed) bus, exports them through the Prometheus sink, parses
// the export back with the calibration importer and compares — the
// write→parse→compare fixed point must hold with zero breaches. A second,
// deliberately drifted copy (service-time mu shifted by ln 1.25, sigma
// scaled x1.1 — a deployment whose requests run 25% slower and noisier
// than profiled) is then handed to the auto-fit, which must recover the
// injected corrections from the bucketed histograms alone.
//
// Everything here is closed-form queueing math on a deterministic
// quantile grid — no RNG, no engine run — so the table is trivially
// byte-identical at any -jobs value. Like the other scenario-family
// experiments it is excluded from IDs()/`run all`; GOLDEN.sha256 and the
// run-all stdout never move.
func calibrationExperiment(ctx *Context) (*Table, error) {
	svc, err := workload.ByName("E-commerce")
	if err != nil {
		return nil, err
	}
	const load = 0.7
	qps := load * svc.MaxLoadQPS

	// The fit reads quantiles back out of bucketed histograms, so the
	// window-p99 family uses a fine geometric grid — a deployment would
	// configure its latency SLO buckets comparably.
	fine := geomBounds(0.001, 2.0, 48)
	grid := quantileGrid()

	const muShift = 0.22314355131420976 // ln 1.25
	const sigmaScale = 1.1

	bus := obs.NewBus()
	winH := bus.Histogram("rhythm_window_p99_seconds", fine)
	drift := obs.NewBus()
	driftWinH := drift.Histogram("rhythm_window_p99_seconds", fine)

	type podRow struct {
		name                string
		soloP99, driftedP99 float64
	}
	rows := make([]podRow, 0, len(svc.Components))
	for _, c := range svc.Components {
		sj := c.Station.Solo(qps)
		mu, sigma := sj.LogParams()
		bus.Histogram("rhythm_pod_sojourn_p99_seconds", obs.LatencyBuckets,
			"pod", c.Name).Observe(sj.P99())
		driftedP99 := 0.0
		for _, q := range grid {
			z := sim.NormQuantile(q)
			winH.Observe(math.Exp(mu + sigma*z))
			dv := math.Exp(mu + muShift + sigmaScale*sigma*z)
			driftWinH.Observe(dv)
			if q == 0.99 {
				driftedP99 = dv
			}
		}
		rows = append(rows, podRow{c.Name, sj.P99(), driftedP99})
	}
	predicted := calibration.Snapshot(bus)

	// Observed side of the fixed point: the bus's own export, written by
	// the sink and parsed back by the importer.
	var buf bytes.Buffer
	if err := bus.WriteMetrics(&buf); err != nil {
		return nil, err
	}
	observed, err := calibration.ImportPrometheus(&buf)
	if err != nil {
		return nil, fmt.Errorf("calibration experiment: re-importing own export: %w", err)
	}
	self := calibration.Compare(predicted, observed, calibration.DefaultRules())

	fit, err := calibration.FitReport(predicted, calibration.Snapshot(drift))
	if err != nil {
		return nil, fmt.Errorf("calibration experiment: fitting drifted twin: %w", err)
	}

	t := &Table{
		ID: "calibration",
		Title: fmt.Sprintf("Self-calibration fixed point: E-commerce solo tails at load %.2f, export/import round trip, drift fit",
			load),
		Columns: []string{"pod", "solo p99", "drifted p99", "fixed point"},
	}
	for _, r := range rows {
		status := "ok"
		for _, b := range self.Breaches {
			if strings.Contains(b.Key, `pod="`+r.name+`"`) {
				status = "BREACH"
			}
		}
		t.AddRow(r.name, ms(r.soloP99), ms(r.driftedP99), status)
	}
	verdict := "PASS"
	if !self.Pass {
		verdict = "FAIL"
	}
	t.Note("self-calibration: %s — %d series compared, %d breach(es), %d predicted-only, %d observed-only",
		verdict, self.Matched, len(self.Breaches), len(self.PredictedOnly), len(self.ObservedOnly))
	t.Note("injected drift: service-time mu %+.4f (x1.25 slower), sigma x%.2f", muShift, sigmaScale)
	conv := "converged"
	if !fit.Converged {
		conv = "did not converge"
	}
	t.Note("fit recovered: mu shift %+.3f (true %+.3f), sigma scale x%.3f (true x%.3f), fitted p99 %s vs observed %s (%s)",
		float64(fit.MuShift), muShift, float64(fit.SigmaScale), sigmaScale,
		ms(float64(fit.FittedP99)), ms(float64(fit.ObservedP99)), conv)
	return t, nil
}

// geomBounds returns n geometrically spaced histogram bounds on [lo, hi].
func geomBounds(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	ratio := math.Pow(hi/lo, 1/float64(n-1))
	v := lo
	for i := range out {
		out[i] = v
		v *= ratio
	}
	return out
}

// quantileGrid is the deterministic probe grid the experiment samples each
// sojourn distribution at: every 2% plus the 0.99 tail point itself.
func quantileGrid() []float64 {
	out := make([]float64, 0, 50)
	for i := 1; i <= 49; i++ {
		out = append(out, float64(i)/50)
	}
	return append(out, 0.99)
}
