package queueing

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"rhythm/internal/sim"
)

// ErlangC returns the probability that an arriving request must wait in an
// M/M/c queue with offered load a = lambda/mu and c servers, by the
// iterative Erlang-B recursion. It is the scalar form the lane recursion
// of AtLanes replaced, kept as the oracle atOracle is built on.
func ErlangC(c int, a float64) float64 {
	if c <= 0 {
		return 1
	}
	if a <= 0 {
		return 0
	}
	rho := a / float64(c)
	if rho >= 1 {
		return 1
	}
	// Erlang-B via recursion: B(0)=1; B(k) = a*B(k-1)/(k + a*B(k-1)).
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	// Erlang-C from Erlang-B.
	return b / (1 - rho*(1-b))
}

// atOracle is Station.At as one scalar call per operating point, over
// ErlangC: the differential oracle every lane of AtLanes must match bit
// for bit.
func atOracle(s Station, lambda, inflate, cvInflate, freqScale float64) Sojourn {
	if !(lambda > 0) {
		lambda = 0
	}
	if inflate < 1 {
		inflate = 1
	}
	if cvInflate < 1 {
		cvInflate = 1
	}
	if freqScale <= 0 {
		freqScale = 1
	}
	service := s.BaseService * inflate / freqScale
	if s.ServiceLoadFactor > 0 {
		rhoNom := lambda * service / float64(s.Workers)
		if rhoNom > 1 {
			rhoNom = 1
		}
		service *= 1 + s.ServiceLoadFactor*rhoNom*rhoNom
	}
	mu := 1 / service
	a := lambda / mu
	rho := a / float64(s.Workers)
	if rho > maxUtilization {
		rho = maxUtilization
		a = rho * float64(s.Workers)
	}
	pWait := ErlangC(s.Workers, a)
	meanWait := 0.0
	if denom := float64(s.Workers)*mu - a*mu; denom > 0 {
		meanWait = pWait / denom
	}
	const maxCV = 2.0
	cv := s.BaseCV * cvInflate * (1 + s.LoadCVGrowth*rho*rho*rho*rho/(1-rho+0.05))
	if cv > maxCV {
		cv = maxCV
	}
	return Sojourn{
		MeanWait:    meanWait,
		MeanService: service,
		CV:          cv,
		Utilization: rho,
		dist:        sim.NewLognormal(meanWait+service, cv),
	}
}

// sojournBitsEqual compares every field of two sojourn distributions by
// bit pattern, so NaN fields compare equal to themselves.
func sojournBitsEqual(a, b Sojourn) bool {
	am, as := a.LogParams()
	bm, bs := b.LogParams()
	for _, p := range [][2]float64{
		{a.MeanWait, b.MeanWait}, {a.MeanService, b.MeanService}, {a.CV, b.CV},
		{a.Utilization, b.Utilization}, {am, bm}, {as, bs}, {a.Mean(), b.Mean()},
	} {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			return false
		}
	}
	return true
}

// laneCase is one AtLanes call: a station, its lanes and the shared
// frequency scale.
type laneCase struct {
	name                       string
	st                         Station
	lambda, inflate, cvInflate []float64
	freqScale                  float64
}

// checkLanes runs one AtLanes call and holds every lane to atOracle and
// to a lone At call, which runs one lane on the scalar paths: so at eight
// lanes and more, where AtLanes takes sim's eight-lane kernels on hosts
// that have them, every lane is also held to the scalar code of the
// same binary. A panic (NewLognormal's, on a non-positive mean) must come
// from both or neither, on the first lane the oracle panics on.
func checkLanes(t *testing.T, c laneCase) {
	t.Helper()
	got := make([]Sojourn, len(c.lambda))
	lanePanic := catch(func() { c.st.AtLanes(got, c.lambda, c.inflate, c.cvInflate, c.freqScale) })
	oraclePanic := false
	for j := range got {
		var want Sojourn
		if catch(func() { want = atOracle(c.st, c.lambda[j], c.inflate[j], c.cvInflate[j], c.freqScale) }) {
			oraclePanic = true
			break
		}
		if lanePanic {
			continue
		}
		if !sojournBitsEqual(got[j], want) {
			t.Fatalf("%s: lane %d of %d (lambda %v, inflate %v, cvInflate %v, freq %v, station %+v):\nlanes  %+v\noracle %+v",
				c.name, j, len(got), c.lambda[j], c.inflate[j], c.cvInflate[j], c.freqScale, c.st, got[j], want)
		}
		if one := c.st.At(c.lambda[j], c.inflate[j], c.cvInflate[j], c.freqScale); !sojournBitsEqual(one, got[j]) {
			t.Fatalf("%s: lane %d of %d: lone At %+v differs from AtLanes %+v", c.name, j, len(got), one, got[j])
		}
	}
	if lanePanic != oraclePanic {
		t.Fatalf("%s: AtLanes panicked %v, oracle panicked %v", c.name, lanePanic, oraclePanic)
	}
}

// catch runs f and reports whether it panicked.
func catch(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// repeat returns n copies of v.
func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// TestAtLanesMatchesOracle holds the interleaved lane form to the scalar
// ErlangC-based oracle, bit for bit: random lanes on random stations, and
// the edges — idle and NaN offered load, inflation factors below 1, the
// utilization cap, one and 172 workers, a capped nominal utilization
// under ServiceLoadFactor, lanes whose loads differ widely, and every
// lane count from 1 to 40: the scalar four-lane interleave and its lone
// lane, the kernels' sixteen- and eight-lane blocks and their tails, and
// more lanes than one batch (chunk) holds.
func TestAtLanesMatchesOracle(t *testing.T) {
	big := Station{BaseService: 0.004, BaseCV: 0.5, Workers: 172, LoadCVGrowth: 1.2}
	one := Station{BaseService: 0.002, BaseCV: 0.3, Workers: 1, LoadCVGrowth: 0.5}
	db := Station{BaseService: 0.003, BaseCV: 0.6, Workers: 13, LoadCVGrowth: 2, ServiceLoadFactor: 0.8}
	nan := math.NaN()
	cases := []laneCase{
		{"idle-and-nan", big, []float64{0, -5, nan, math.Inf(-1), 100}, repeat(1, 5), repeat(1, 5), 1},
		{"inflate-below-one", db, []float64{500, 1000, 2000}, []float64{0.5, -1, 1}, []float64{0.2, 1, -3}, 1},
		{"rho-capped", big, []float64{1e5, 4.3e4, 4.29e4, 1e9}, repeat(1.1, 4), repeat(1.2, 4), 1},
		{"one-worker", one, []float64{0, 100, 490, 499, 10000, 250, 1}, repeat(1.3, 7), repeat(1.1, 7), 0.8},
		{"172-workers", big, []float64{1e4, 2e4, 3e4, 4e4, 4.2e4}, []float64{1, 1.05, 1.1, 1.2, 1.5}, repeat(1, 5), 1},
		{"rhoNom-capped", db, []float64{4e3, 5e3, 1e4, 1e6}, []float64{1, 2, 3, 4}, repeat(1.5, 4), 1},
		{"mixed-lambda", big, []float64{0, 1e4, nan, 4.2e4, 1, 1e7, 3e4, 5}, repeat(1.2, 8), repeat(1.3, 8), 1},
		{"freq-zero", db, []float64{1000, 2000}, repeat(1, 2), repeat(1, 2), 0},
		{"inflate-inf", db, []float64{1000, 0}, []float64{math.Inf(1), math.Inf(1)}, repeat(1, 2), 1},
		{"inflate-nan", big, []float64{1000}, []float64{nan}, []float64{nan}, 1},
	}
	for n := 1; n <= 40; n++ {
		lam := make([]float64, n)
		for j := range lam {
			lam[j] = float64(j+1) * 4000
		}
		cases = append(cases, laneCase{fmt.Sprintf("width-%d", n), big, lam, repeat(1.1, n), repeat(1.2, n), 1})
	}
	for _, c := range cases {
		checkLanes(t, c)
	}

	r := sim.NewRNG(2020).Fork("lanes")
	for trial := 0; trial < 2000; trial++ {
		st := Station{
			BaseService:  1e-4 + 0.02*r.Float64(),
			BaseCV:       r.Float64(),
			Workers:      1 + r.Intn(172),
			LoadCVGrowth: 3 * r.Float64(),
		}
		if r.Float64() < 0.3 {
			st.ServiceLoadFactor = 2 * r.Float64()
		}
		n := 1 + r.Intn(40)
		c := laneCase{name: fmt.Sprintf("random-%d", trial), st: st, freqScale: 0.5 + r.Float64()}
		for j := 0; j < n; j++ {
			c.lambda = append(c.lambda, 1.1*r.Float64()*st.MaxRate())
			c.inflate = append(c.inflate, 0.9+2*r.Float64())
			c.cvInflate = append(c.cvInflate, 0.9+r.Float64())
		}
		checkLanes(t, c)
	}
}

// FuzzStationLanes holds AtLanes to the scalar oracle and to lone At
// calls on arbitrary stations and operating points: the fuzzed lane is
// placed among neighbours at scaled loads, at every position of a width-5
// batch (one full scalar interleave group plus a padded one), and first,
// in the middle and last in batches of 8, 13, 16, 21, 32 and 35 lanes,
// which reach the eight-lane kernels' blocks, their tails and a second
// batch. It also checks that doubling the arrival rate never lowers the
// mean sojourn.
func FuzzStationLanes(f *testing.F) {
	f.Add(0.004, 0.5, 172, 1.2, 0.0, 4e4, 1.1, 1.2, 1.0)
	f.Fuzz(func(t *testing.T, base, cv float64, workers int, growth, slf, lambda, inflate, cvInflate, freq float64) {
		st := Station{BaseService: base, BaseCV: cv, Workers: workers, LoadCVGrowth: growth, ServiceLoadFactor: slf}
		if st.Validate() != nil || workers > 4096 {
			return
		}
		for pos := 0; pos < 5; pos++ {
			c := laneCase{name: fmt.Sprintf("pos-%d", pos), st: st, freqScale: freq}
			for j := 0; j < 5; j++ {
				l := lambda
				if j != pos {
					l = lambda * float64(j+1) / 3
				}
				c.lambda = append(c.lambda, l)
				c.inflate = append(c.inflate, inflate)
				c.cvInflate = append(c.cvInflate, cvInflate)
			}
			checkLanes(t, c)
		}
		for _, width := range []int{8, 13, 16, 21, 32, 35} {
			for _, pos := range []int{0, width / 2, width - 1} {
				c := laneCase{name: fmt.Sprintf("width-%d-pos-%d", width, pos), st: st, freqScale: freq}
				for j := 0; j < width; j++ {
					l := lambda
					if j != pos {
						l = lambda * float64(j+1) / float64(width/2+1)
					}
					c.lambda = append(c.lambda, l)
					c.inflate = append(c.inflate, inflate)
					c.cvInflate = append(c.cvInflate, cvInflate)
				}
				checkLanes(t, c)
			}
		}
		// The mean sojourn is non-decreasing in the arrival rate.
		lo, okLo := finiteMean(st, lambda, inflate, cvInflate, freq)
		hi, okHi := finiteMean(st, 2*lambda, inflate, cvInflate, freq)
		if okLo && okHi && lambda > 0 && hi < lo*(1-meanMonotoneTol) {
			t.Fatalf("station %+v: mean %v at lambda %v, %v at twice that", st, lo, lambda, hi)
		}
	})
}

// relErr returns |got-want|/|want|, or |got| when want is 0.
func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// TestStationMatchesClosedForms holds Station.At, on stations without
// load-dependent service or interference, to the textbook M/M/1 and M/M/2
// waiting times to a relative 1e-12: M/M/1 Wq = rho/(mu(1-rho)) with
// P(wait) = rho, M/M/2 Wq = rho^2/(mu(1-rho^2)). Unlike the lane tests,
// which compare At with a second Erlang recursion, these fail when the
// recursion itself is wrong.
func TestStationMatchesClosedForms(t *testing.T) {
	const tol = 1e-12
	for _, svc := range []float64{1e-4, 0.002, 0.01, 0.37} {
		mu := 1 / svc
		for _, rho := range []float64{1e-6, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.98} {
			for _, c := range []int{1, 2} {
				st := Station{BaseService: svc, BaseCV: 0.5, Workers: c, LoadCVGrowth: 1}
				lambda := rho * float64(c) * mu
				sj := st.At(lambda, 1, 1, 1)
				want := rho / (mu * (1 - rho))
				if c == 2 {
					want = rho * rho / (mu * (1 - rho*rho))
				}
				if e := relErr(sj.MeanWait, want); e > tol {
					t.Errorf("M/M/%d service %v rho %v: Wq = %v, closed form %v (rel err %.2e)",
						c, svc, rho, sj.MeanWait, want, e)
				}
				if e := relErr(sj.MeanService, svc); e > tol {
					t.Errorf("M/M/%d service %v rho %v: service %v, want %v", c, svc, rho, sj.MeanService, svc)
				}
				if c == 1 {
					// Wq = P(wait)/(mu - lambda), so P(wait) = Wq*(mu - lambda).
					if pWait := sj.MeanWait * (mu - lambda); relErr(pWait, rho) > tol {
						t.Errorf("M/M/1 service %v rho %v: P(wait) = %v, want rho", svc, rho, pWait)
					}
				}
			}
		}
	}
}

// TestStationIdleLimit: as rho -> 0 the wait vanishes and the mean sojourn
// tends to the service time, at every worker count; at lambda = 0 both
// hold exactly.
func TestStationIdleLimit(t *testing.T) {
	for _, c := range []int{1, 2, 8, 172} {
		st := Station{BaseService: 0.004, BaseCV: 0.5, Workers: c, LoadCVGrowth: 1}
		if sj := st.At(0, 1, 1, 1); sj.MeanWait != 0 || sj.Mean() != st.BaseService {
			t.Errorf("c=%d idle: wait %v, mean %v, want 0 and %v", c, sj.MeanWait, sj.Mean(), st.BaseService)
		}
		prev := math.Inf(1)
		for _, rho := range []float64{1e-2, 1e-4, 1e-6, 1e-9} {
			sj := st.At(rho*st.MaxRate(), 1, 1, 1)
			// Wq/service <= rho/(1-rho), the M/M/1 value, for every c.
			if sj.MeanWait > prev || sj.MeanWait/st.BaseService > rho/(1-rho)*(1+1e-12) {
				t.Errorf("c=%d rho %v: wait %v does not shrink with rho (previous %v)", c, rho, sj.MeanWait, prev)
			}
			if relErr(sj.Mean(), st.BaseService) > 2*rho {
				t.Errorf("c=%d rho %v: mean %v not within %v of service %v", c, rho, sj.Mean(), 2*rho, st.BaseService)
			}
			prev = sj.MeanWait
		}
	}
}

// meanMonotoneTol is the relative slack the monotonicity properties allow:
// the Erlang recursion rounds, so two operating points an ulp apart may
// order their means either way by a few ulps.
const meanMonotoneTol = 1e-12

// finiteMean returns the mean sojourn at the operating point and whether
// At produced a finite one (it panics, as NewLognormal does, on a
// non-positive mean).
func finiteMean(st Station, lambda, inflate, cvInflate, freq float64) (mean float64, ok bool) {
	if catch(func() { mean = st.At(lambda, inflate, cvInflate, freq).Mean() }) {
		return 0, false
	}
	return mean, !math.IsNaN(mean) && !math.IsInf(mean, 0)
}

// TestMeanSojournMonotone: the mean sojourn never falls as the arrival
// rate or the interference inflation rises, on random stations with and
// without load-dependent service, past the utilization cap included.
func TestMeanSojournMonotone(t *testing.T) {
	r := sim.NewRNG(2020).Fork("monotone")
	for trial := 0; trial < 300; trial++ {
		st := Station{
			BaseService:  1e-4 + 0.02*r.Float64(),
			BaseCV:       r.Float64(),
			Workers:      1 + r.Intn(172),
			LoadCVGrowth: 3 * r.Float64(),
		}
		if trial%2 == 1 {
			st.ServiceLoadFactor = 2 * r.Float64()
		}
		infl, freq := 1+r.Float64(), 0.5+r.Float64()
		prev := 0.0
		for i := 0; i <= 24; i++ {
			m, ok := finiteMean(st, 1.2*st.MaxRate()*float64(i)/24, infl, 1, freq)
			if !ok || m < prev*(1-meanMonotoneTol) {
				t.Fatalf("station %+v: mean %v at load step %d below %v", st, m, i, prev)
			}
			prev = m
		}
		lambda := 1.1 * r.Float64() * st.MaxRate()
		prev = 0
		for i := 0; i <= 24; i++ {
			m, ok := finiteMean(st, lambda, 1+float64(i)/8, 1, freq)
			if !ok || m < prev*(1-meanMonotoneTol) {
				t.Fatalf("station %+v lambda %v: mean %v at inflate step %d below %v", st, lambda, m, i, prev)
			}
			prev = m
		}
	}
}

func TestErlangCKnownValues(t *testing.T) {
	// Classic value: c=10, a=8 Erlangs -> P(wait) ~ 0.409.
	if got := ErlangC(10, 8); math.Abs(got-0.409) > 0.005 {
		t.Fatalf("ErlangC(10,8) = %v, want ~0.409", got)
	}
	// Single server: M/M/1 P(wait) = rho.
	if got := ErlangC(1, 0.5); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("ErlangC(1,0.5) = %v, want 0.5", got)
	}
}

func TestErlangCBoundaries(t *testing.T) {
	if ErlangC(5, 0) != 0 {
		t.Fatal("no load should mean no waiting")
	}
	if ErlangC(5, 5) != 1 {
		t.Fatal("saturated queue should always wait")
	}
	if ErlangC(0, 1) != 1 {
		t.Fatal("no servers should always wait")
	}
	if ErlangC(5, 100) != 1 {
		t.Fatal("overloaded queue should always wait")
	}
}

func TestErlangCMonotoneInLoad(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRNG(seed)
		c := 1 + r.Intn(40)
		a1 := r.Float64() * float64(c) * 0.95
		a2 := a1 + r.Float64()*(float64(c)*0.99-a1)
		return ErlangC(c, a1) <= ErlangC(c, a2)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestErlangCMonotoneInServers(t *testing.T) {
	// More servers at the same offered load wait less.
	for c := 2; c <= 30; c++ {
		if ErlangC(c, 1.5) > ErlangC(c-1, 1.5)+1e-12 {
			t.Fatalf("ErlangC not decreasing in c at c=%d", c)
		}
	}
}

func defaultStation() Station {
	return Station{BaseService: 0.010, BaseCV: 0.4, Workers: 8, LoadCVGrowth: 0.8}
}

func TestStationValidate(t *testing.T) {
	if err := defaultStation().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Station{
		{BaseService: 0, BaseCV: 1, Workers: 1},
		{BaseService: 1, BaseCV: -1, Workers: 1},
		{BaseService: 1, BaseCV: 1, Workers: 0},
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Errorf("case %d: invalid station accepted", i)
		}
	}
}

func TestSojournGrowsWithLoad(t *testing.T) {
	s := defaultStation()
	max := s.MaxRate()
	prevMean, prevP99 := 0.0, 0.0
	for _, frac := range []float64{0.1, 0.3, 0.5, 0.7, 0.85, 0.95} {
		sj := s.Solo(frac * max)
		if sj.Mean() <= prevMean {
			t.Fatalf("mean sojourn not increasing at load %v", frac)
		}
		if sj.P99() <= prevP99 {
			t.Fatalf("p99 not increasing at load %v", frac)
		}
		prevMean, prevP99 = sj.Mean(), sj.P99()
	}
}

func TestSojournMinimumIsServiceTime(t *testing.T) {
	s := defaultStation()
	sj := s.Solo(0.01 * s.MaxRate())
	if sj.Mean() < s.BaseService {
		t.Fatalf("mean %v below base service %v", sj.Mean(), s.BaseService)
	}
	if sj.Mean() > s.BaseService*1.05 {
		t.Fatalf("near-idle mean %v should be close to base %v", sj.Mean(), s.BaseService)
	}
}

func TestInterferenceInflatesSojourn(t *testing.T) {
	s := defaultStation()
	lambda := 0.5 * s.MaxRate()
	solo := s.Solo(lambda)
	inflated := s.At(lambda, 1.5, 1.2, 1)
	if inflated.Mean() <= solo.Mean() {
		t.Fatal("interference should inflate mean sojourn")
	}
	if inflated.P99() <= solo.P99() {
		t.Fatal("interference should inflate p99")
	}
	// Inflation also raises utilization (same arrivals, slower service).
	if inflated.Utilization <= solo.Utilization {
		t.Fatal("interference should raise utilization")
	}
}

func TestDVFSSlowdown(t *testing.T) {
	s := defaultStation()
	lambda := 0.4 * s.MaxRate()
	fast := s.At(lambda, 1, 1, 1.0)
	slow := s.At(lambda, 1, 1, 0.6) // 60% frequency
	if slow.Mean() <= fast.Mean() {
		t.Fatal("reducing frequency should slow the station")
	}
	if got, want := slow.MeanService, fast.MeanService/0.6; math.Abs(got-want) > 1e-12 {
		t.Fatalf("service scaling: got %v want %v", got, want)
	}
}

func TestOverloadStaysFinite(t *testing.T) {
	s := defaultStation()
	sj := s.At(10*s.MaxRate(), 2, 2, 1)
	if math.IsInf(sj.Mean(), 0) || math.IsNaN(sj.Mean()) {
		t.Fatalf("overloaded sojourn not finite: %v", sj.Mean())
	}
	if sj.Utilization > 0.99 {
		t.Fatalf("utilization cap not applied: %v", sj.Utilization)
	}
}

func TestSojournSamplingMatchesAnalytic(t *testing.T) {
	s := defaultStation()
	sj := s.Solo(0.6 * s.MaxRate())
	r := sim.NewRNG(3)
	var w sim.Welford
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = sj.Sample(r)
		w.Add(xs[i])
	}
	if math.Abs(w.Mean()-sj.Mean())/sj.Mean() > 0.03 {
		t.Fatalf("sample mean %v vs analytic %v", w.Mean(), sj.Mean())
	}
	emp := sim.Quantile(xs, 0.99)
	if math.Abs(emp-sj.P99())/sj.P99() > 0.08 {
		t.Fatalf("sample p99 %v vs analytic %v", emp, sj.P99())
	}
}

func TestCVGrowsWithLoad(t *testing.T) {
	s := defaultStation()
	lo := s.Solo(0.2 * s.MaxRate())
	hi := s.Solo(0.9 * s.MaxRate())
	if hi.CV <= lo.CV {
		t.Fatalf("CV should grow with load: %v vs %v", hi.CV, lo.CV)
	}
}

func TestAtClampsDegenerateInputs(t *testing.T) {
	s := defaultStation()
	sj := s.At(0.5*s.MaxRate(), 0.5, 0.1, -1) // inflate<1, cvInflate<1, freq<=0
	solo := s.Solo(0.5 * s.MaxRate())
	if math.Abs(sj.Mean()-solo.Mean()) > 1e-12 {
		t.Fatal("degenerate inputs should clamp to solo behaviour")
	}
}

// TestAtClampsDegenerateLambda: negative or NaN offered load must model as
// an idle station — finite, NaN-free, and equal to the true zero-load
// operating point — not poison the lognormal fit.
func TestAtClampsDegenerateLambda(t *testing.T) {
	s := defaultStation()
	idle := s.Solo(0)
	for name, lambda := range map[string]float64{
		"negative": -100,
		"nan":      math.NaN(),
		"neg-inf":  math.Inf(-1),
	} {
		sj := s.At(lambda, 1, 1, 1)
		if math.IsNaN(sj.Mean()) || math.IsInf(sj.Mean(), 0) {
			t.Fatalf("%s lambda: mean %v not finite", name, sj.Mean())
		}
		if sj.Mean() != idle.Mean() || sj.Utilization != idle.Utilization {
			t.Fatalf("%s lambda: got mean %v util %v, want idle point mean %v util %v",
				name, sj.Mean(), sj.Utilization, idle.Mean(), idle.Utilization)
		}
		if sj.P99() != idle.P99() {
			t.Fatalf("%s lambda: p99 %v, want %v", name, sj.P99(), idle.P99())
		}
	}
}

func TestMaxRate(t *testing.T) {
	s := Station{BaseService: 0.010, BaseCV: 0.3, Workers: 10}
	if got := s.MaxRate(); math.Abs(got-1000) > 1e-9 {
		t.Fatalf("MaxRate = %v, want 1000", got)
	}
}
