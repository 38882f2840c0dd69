package dist

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV writes the per-job placement table as CSV: one row per job
// with its slot, the worker it ran on, the remote dispatches and the
// completion time, followed by no summary rows (the Report's JSON encoding
// carries the totals).
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"job", "slot", "worker", "attempts", "ms"}); err != nil {
		return err
	}
	for _, j := range r.Jobs {
		rec := []string{
			strconv.Itoa(j.Job),
			strconv.Itoa(j.Slot),
			j.Worker,
			strconv.Itoa(j.Attempts),
			fmt.Sprintf("%.1f", j.MS),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
