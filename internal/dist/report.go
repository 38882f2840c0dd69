package dist

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteCSV writes the per-job placement table as CSV: one row per job
// with its slot, the worker it ran on, the remote dispatches and the
// completion time, followed by no summary rows (the JSON form carries the
// totals).
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
