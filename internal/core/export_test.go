package core

import "time"

// SetHeadStart pins the ladder's enumeration head start and returns a
// function that restores it, so ladder tests do not depend on how fast
// the machine enumerates.
func SetHeadStart(d time.Duration) (restore func()) {
	old := enumHeadStart
	enumHeadStart = d
	return func() { enumHeadStart = old }
}
