package webcorpus

import (
	"fmt"
	"math"
)

// Schedule is a crawl timetable: when to capture each snapshot, in weeks
// relative to the first crawl (t = 0). It reifies the paper's Figure 4.
type Schedule struct {
	Times  []float64
	Labels []string
}

// PaperSchedule returns the Figure-4 timeline of the paper's experiment:
//
//	t1  4th week of December 2002   → week 0
//	t2  3rd week of January  2003   → week 4   (≈ one month later)
//	t3  3rd week of February 2003   → week 8   (≈ one month later)
//	t4  4th week of June     2003   → week 26  (≈ four months later)
func PaperSchedule() Schedule {
	return Schedule{
		Times:  []float64{0, 4, 8, 26},
		Labels: []string{"t1", "t2", "t3", "t4"},
	}
}

// Validate checks the schedule is well-formed: equal-length slices,
// finite non-decreasing times, non-empty labels.
func (s Schedule) Validate() error {
	if len(s.Times) == 0 {
		return fmt.Errorf("%w: empty schedule", ErrBadConfig)
	}
	if len(s.Times) != len(s.Labels) {
		return fmt.Errorf("%w: %d times but %d labels", ErrBadConfig, len(s.Times), len(s.Labels))
	}
	for i, l := range s.Labels {
		if l == "" {
			return fmt.Errorf("%w: empty label at %d", ErrBadConfig, i)
		}
		if math.IsNaN(s.Times[i]) || math.IsInf(s.Times[i], 0) {
			return fmt.Errorf("%w: Times[%d]=%g", ErrBadConfig, i, s.Times[i])
		}
		if i > 0 && s.Times[i] < s.Times[i-1] {
			return fmt.Errorf("%w: times not non-decreasing at %d", ErrBadConfig, i)
		}
	}
	return nil
}

// Gaps returns the interval lengths between consecutive snapshots.
func (s Schedule) Gaps() []float64 {
	if len(s.Times) < 2 {
		return nil
	}
	gaps := make([]float64, len(s.Times)-1)
	for i := 1; i < len(s.Times); i++ {
		gaps[i-1] = s.Times[i] - s.Times[i-1]
	}
	return gaps
}
