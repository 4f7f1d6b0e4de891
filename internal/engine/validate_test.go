package engine

import (
	"errors"
	"strings"
	"testing"
	"time"

	"rhythm/internal/faults"
	"rhythm/internal/loadgen"
	"rhythm/internal/workload"
)

// TestValidateEveryInvalidField is the satellite table test: each Config
// field that can be invalid produces a *FieldError naming exactly that
// field, and a clean config passes.
func TestValidateEveryInvalidField(t *testing.T) {
	valid := func() Config {
		return Config{
			Service: workload.ECommerce(),
			Pattern: loadgen.Constant(0.5),
		}
	}
	cases := []struct {
		name  string
		mut   func(*Config)
		field string
	}{
		{"nil service", func(c *Config) { c.Service = nil }, "Service"},
		{"invalid service", func(c *Config) { c.Service = &workload.Service{Name: "broken"} }, "Service"},
		{"nil pattern", func(c *Config) { c.Pattern = nil }, "Pattern"},
		{"negative SLA", func(c *Config) { c.SLA = -0.1 }, "SLA"},
		{"negative control period", func(c *Config) { c.ControlPeriod = -time.Second }, "ControlPeriod"},
		{"negative warmup", func(c *Config) { c.Warmup = -time.Second }, "Warmup"},
		{"invalid fault schedule", func(c *Config) {
			c.Faults = &faults.Schedule{Events: []faults.Event{{Kind: "meteor-strike"}}}
		}, "Faults"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid()
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("Validate accepted an invalid config")
			}
			var fe *FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("error is not a *FieldError: %v", err)
			}
			if !strings.Contains(err.Error(), "Config."+tc.field) {
				t.Fatalf("error %q does not name Config.%s", err, tc.field)
			}
			if _, nerr := New(cfg); nerr == nil {
				t.Fatal("New accepted the invalid config")
			}
		})
	}

	cfg := valid()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("clean config rejected: %v", err)
	}
}

// TestValidateCollectsAllFailures pins that multiple bad fields report
// together, not first-error-wins.
func TestValidateCollectsAllFailures(t *testing.T) {
	cfg := Config{SLA: -1, Warmup: -1}
	err := cfg.Validate()
	if err == nil {
		t.Fatal("no error")
	}
	for _, field := range []string{"Service", "Pattern", "SLA", "Warmup"} {
		if !strings.Contains(err.Error(), "Config."+field) {
			t.Fatalf("joined error %q missing Config.%s", err, field)
		}
	}
}
