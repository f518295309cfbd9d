package counters

import (
	"fmt"
	"io"
)

// WriteMetrics emits the clock in Prometheus text exposition format, one
// counter per stage plus a total:
//
//	<prefix>_stage_seconds{stage="SMEM"} 1.234567
//	<prefix>_stage_seconds_total 2.345678
func (c *StageClock) WriteMetrics(w io.Writer, prefix string) error {
	for i := range c.T {
		if _, err := fmt.Fprintf(w, "%s_stage_seconds{stage=%q} %.6f\n",
			prefix, Stage(i).String(), c.T[i].Seconds()); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_stage_seconds_total %.6f\n", prefix, c.Total().Seconds())
	return err
}
