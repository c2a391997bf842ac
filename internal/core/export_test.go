package core

import "time"

// SetSeqHeadStart pins the ladder's sequential head start and returns a
// function that restores it, so ladder tests do not depend on how fast
// the machine runs the sequential search.
func SetSeqHeadStart(d time.Duration) (restore func()) {
	old := seqHeadStart
	seqHeadStart = d
	return func() { seqHeadStart = old }
}
