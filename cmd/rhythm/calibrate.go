package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"rhythm/internal/calibration"
	"rhythm/internal/experiments"
	"rhythm/internal/obs"
)

// runCalibrate executes `rhythm calibrate -observed <artifact>`: it reads
// an exported artifact back (Prometheus snapshot or JSONL trace), learns
// from its rhythm_experiments_total series which experiments produced it,
// re-runs exactly those on a private observability bus, and compares the
// fresh prediction against the observed series under the default
// tolerance rules. The scorecard goes to stdout (and as JSON to -report);
// the exit code is 0 only when every matched series is within tolerance.
//
// The global -quick/-seed/-faults flags must match the run that produced
// the artifact — calibrating a -seed 2020 export with -seed 7 measures
// the seed difference, not simulator drift. With matching flags the
// comparison is a fixed point: the simulator is deterministic, so
// calibrating against its own export passes with zero breaches
// (TestCalibrateSelfFixedPoint pins this).
func runCalibrate(ctx *experiments.Context, observedPath string, fit bool, reportPath string, haveScenario bool, stdout, stderr io.Writer) int {
	observed, err := calibration.ImportFile(observedPath)
	if err != nil {
		fmt.Fprintf(stderr, "rhythm: calibrate: %s:\n%v\n", observedPath, err)
		return 1
	}
	ids := calibration.ExperimentIDs(observed)
	if len(ids) == 0 {
		fmt.Fprintf(stderr, "rhythm: calibrate: %s carries no rhythm_experiments_total series, so there is nothing to re-run; re-export it with `rhythm run <ids> -metrics-out` or `rhythm trace <id>` from this build\n",
			observedPath)
		return 1
	}
	for _, id := range ids {
		if _, err := experiments.Get(id); err != nil {
			fmt.Fprintf(stderr, "rhythm: calibrate: artifact names %v (run \"rhythm list\" for the registry)\n", err)
			return 1
		}
		if id == "scenario" && !haveScenario {
			fmt.Fprintln(stderr, "rhythm: calibrate: the artifact was produced by the scenario experiment; pass the same -scenario <spec-file>")
			return 2
		}
	}

	// Predict on a private bus: installed only for the re-run so the
	// prediction carries exactly the instruments the original run carried.
	bus := obs.NewBus()
	obs.Install(bus)
	results := ctx.RunAll(ids, 0)
	obs.Uninstall()
	for _, res := range results {
		if res.Err != nil {
			fmt.Fprintf(stderr, "rhythm: calibrate: re-running %s: %v\n", res.ID, res.Err)
			return 1
		}
	}
	predicted := calibration.Snapshot(bus)

	rep := calibration.Compare(predicted, observed, calibration.DefaultRules())
	if fit {
		fit, err := calibration.FitReport(predicted, observed)
		if err != nil {
			fmt.Fprintf(stderr, "rhythm: calibrate: %v\n", err)
			return 1
		}
		rep.Fit = fit
	}

	fmt.Fprintf(stderr, "calibrate: re-ran %s against %s (%d observed series, %d predicted)\n",
		strings.Join(ids, ", "), observedPath, observed.Len(), predicted.Len())
	if err := rep.WriteText(stdout); err != nil {
		fmt.Fprintf(stderr, "rhythm: calibrate: %v\n", err)
		return 1
	}
	if reportPath != "" {
		if err := writeJSONReport(rep, reportPath); err != nil {
			fmt.Fprintf(stderr, "rhythm: calibrate: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "calibration report -> %s\n", reportPath)
	}
	if !rep.Pass {
		return 1
	}
	return 0
}

// writeJSONReport writes the machine-readable scorecard.
func writeJSONReport(rep *calibration.Report, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
