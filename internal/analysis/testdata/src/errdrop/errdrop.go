// Package errdrop is a golden fixture for the errdrop analyzer: errors
// from storage and buffer-pool operations must be checked, since the
// success path mutates frame state and I/O counters.
package errdrop

import "spatialjoin/internal/storage"

func dropStatement(bp *storage.BufferPool, id storage.PageID) {
	bp.MarkDirty(id) // want "unchecked error from storage operation MarkDirty"
}

func dropDeferred(bp *storage.BufferPool) {
	defer bp.Flush() // want "unchecked error from storage operation Flush"
}

func dropBlankAssign(bp *storage.BufferPool, id storage.PageID) *storage.Page {
	p, _ := bp.Fetch(id) // want "unchecked error from storage operation Fetch"
	return p
}

// checked is the approved pattern.
func checked(bp *storage.BufferPool, id storage.PageID) error {
	if _, err := bp.Fetch(id); err != nil {
		return err
	}
	return bp.Flush()
}

func suppressed(bp *storage.BufferPool, id storage.PageID) {
	//sjlint:ignore errdrop best-effort flush on a teardown path
	bp.Flush()
}
