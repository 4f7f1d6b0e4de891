package sim

import (
	"testing"
	"time"
)

func TestTimeArithmetic(t *testing.T) {
	t0 := FromSeconds(1.5)
	t1 := t0.Add(500 * time.Millisecond)
	if t1.Seconds() != 2 {
		t.Fatalf("Add: %v", t1.Seconds())
	}
	if d := t1.Sub(t0); d != 500*time.Millisecond {
		t.Fatalf("Sub: %v", d)
	}
	if s := Time(1500 * time.Millisecond).String(); s != "1.5s" {
		t.Fatalf("String: %q", s)
	}
}
