package pastry

import (
	"slices"
	"time"
)

// medianDuration returns the median of ds (average of the two middle
// values for even lengths), sorting ds in place to find it: both callers
// are done with the sample order. It returns 0 for an empty slice.
func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	mid := len(ds) / 2
	if len(ds)%2 == 1 {
		return ds[mid]
	}
	return (ds[mid-1] + ds[mid]) / 2
}
