package sim

import "time"

// Time is a point in virtual simulation time. The zero Time is the start of
// the simulation. Internally it is nanoseconds, like time.Duration, so
// arithmetic composes with the standard library's duration constants.
type Time int64

// Add returns t shifted by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t - u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Seconds returns t as floating-point seconds since the simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// FromSeconds converts floating-point seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(time.Second)) }

// String formats the time as a duration since the simulation start.
func (t Time) String() string { return time.Duration(t).String() }
