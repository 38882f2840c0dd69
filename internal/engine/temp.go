package engine

import (
	"dynlb/internal/disk"
	"dynlb/internal/sim"
)

// tempFile is a sequential temporary file (PPHJ partition spills) on one of
// a PE's disks. Writes are buffered into prefetch-sized runs so a partition
// flush costs one arm operation per run, matching the paper's prefetching
// on temporary files; reads walk the file sequentially and benefit from the
// controller cache for recently written pages.
type tempFile struct {
	pe          *PE
	space       int64
	dsk         int
	writeCursor int64 // pages durably written
	readCursor  int64
	pending     int // buffered pages not yet flushed
}

// newTemp creates a temporary file on the PE's least recently assigned
// temp disk (stable hash of the space id).
func (pe *PE) newTemp() *tempFile {
	space := pe.sys.newSpace()
	return &tempFile{
		pe:    pe,
		space: space,
		dsk:   pe.disks.DiskFor(space),
	}
}

// write appends pages, flushing full runs. The calling process pays the
// I/O CPU overhead and waits for the flushed runs.
func (tf *tempFile) write(p *sim.Proc, pages int64) {
	if pages <= 0 {
		return
	}
	tf.pending += int(pages)
	run := tf.pe.sys.cfg.Disk.Prefetch
	for tf.pending >= run {
		tf.flushRun(p, run)
	}
}

// flush forces out any buffered pages.
func (tf *tempFile) flush(p *sim.Proc) {
	if tf.pending > 0 {
		tf.flushRun(p, tf.pending)
	}
}

func (tf *tempFile) flushRun(p *sim.Proc, n int) {
	tf.pe.compute(p, tf.pe.sys.cfg.Costs.IO)
	tf.pe.disks.WriteRun(p, tf.dsk, disk.PageID{Space: tf.space, Page: tf.writeCursor}, n)
	tf.writeCursor += int64(n)
	tf.pending -= n
	tf.pe.sys.tempIOPages += int64(n)
}

// writeAsync flushes pages in a background process (partition flush forced
// by a frame steal: the stealer should not wait for the full partition
// write, only the join's future reads depend on it).
func (tf *tempFile) writeAsync(pages int64) {
	if pages <= 0 {
		return
	}
	tf.pending += int(pages)
	n := tf.pending
	tf.pending = 0
	start := tf.writeCursor
	tf.writeCursor += int64(n)
	tf.pe.sys.tempIOPages += int64(n)
	s := tf.pe.sys
	s.k.Spawn("temp-flush", func(p *sim.Proc) {
		run := s.cfg.Disk.Prefetch
		for off := 0; off < n; off += run {
			m := run
			if n-off < m {
				m = n - off
			}
			tf.pe.compute(p, s.cfg.Costs.IO)
			tf.pe.disks.WriteRun(p, tf.dsk, disk.PageID{Space: tf.space, Page: start + int64(off)}, m)
		}
	})
}

// read walks pages sequentially from the read cursor, charging I/O CPU per
// physical access. Pages not yet durably written (still pending or in
// flight) are served as cache hits — they are in the controller cache or
// still in a write buffer.
func (tf *tempFile) read(p *sim.Proc, pages int64) {
	s := tf.pe.sys
	for i := int64(0); i < pages; i++ {
		pg := disk.PageID{Space: tf.space, Page: tf.readCursor}
		tf.readCursor++
		if tf.readCursor > tf.writeCursor {
			// Reading buffered, never-written pages: memory access only.
			continue
		}
		hit := tf.pe.disks.Read(p, tf.dsk, pg, true)
		if !hit {
			tf.pe.compute(p, s.cfg.Costs.IO)
		}
		s.tempIOPages++
	}
}
