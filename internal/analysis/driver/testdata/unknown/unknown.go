// Package unknown carries marker kinds no analyzer owns: a typo'd
// marker, or one whose analyzer was retired, must fail the run rather
// than silently waive nothing.
package unknown

//qcdoclint:detrflow-ok misspelled analyzer name
func alsoClean() int { return 7 }

//qcdoclint:unordered-ok the retired maprange analyzer's marker
func stillClean() int { return 8 }
