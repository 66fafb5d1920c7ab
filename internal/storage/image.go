package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
)

// An image is the serialized form of a set of device pages: the payload a
// snapshot ships, whole or as a delta. It lives in the storage layer
// because it is physical I/O by definition — pages are read straight off
// the source device (the rawdisk lint confines that to here) and written
// straight onto a raw destination Disk before any buffer pool or recovery
// runs over it.
//
// Stream layout (all integers little-endian):
//
//	u32 pageSize | u32 files
//	per file: u32 numPages | u8 authoritative
//	u32 entries
//	per entry, in strictly ascending (file, page) order: u32 file | u32 page | raw page
//	trailer: u32 CRC-32C (Castagnoli) of everything before it
//
// numPages is the file's page count on the source; the destination file is
// grown to at least that many pages. An authoritative file ships every page
// that is not all zero and is reproduced exactly: applying the image zeroes
// every destination page no entry carries, including pages past numPages.
// Other files ship only the pages asked for and keep their content
// elsewhere. A full snapshot marks every file authoritative.

// imageFiles is the enumeration hook WriteImage needs; both Disk and
// fault.Disk provide it.
type imageFiles interface {
	Files() int
}

// imageFile is one file's declared geometry.
type imageFile struct {
	pages int
	auth  bool
}

// WriteImage streams an image of dev to w: every non-zero page of each file
// auth marks authoritative, plus the listed pages of the other files
// (duplicates ship once). It returns the shipped pages in stream order.
func WriteImage(w io.Writer, dev Device, pages []PageID, auth func(FileID) bool) ([]PageID, error) {
	fc, ok := dev.(imageFiles)
	if !ok {
		return nil, fmt.Errorf("storage: device %T cannot enumerate its files for imaging", dev)
	}
	files := make([]imageFile, fc.Files())
	for f := range files {
		files[f] = imageFile{pages: dev.NumPages(FileID(f)), auth: auth(FileID(f))}
	}
	// Authoritative pages are read here, once, to drop the all-zero ones;
	// the listed pages are read as they are streamed.
	type entry struct {
		id  PageID
		buf []byte
	}
	var entries []entry
	seen := make(map[PageID]bool, len(pages))
	for _, id := range pages {
		if id.File < 0 || int(id.File) >= len(files) || id.Page < 0 || int(id.Page) >= files[id.File].pages {
			return nil, fmt.Errorf("storage: page %v outside device bounds", id)
		}
		if !files[id.File].auth && !seen[id] {
			seen[id] = true
			entries = append(entries, entry{id: id})
		}
	}
	zero := make([]byte, dev.PageSize())
	for f, file := range files {
		if !file.auth {
			continue
		}
		for p := 0; p < file.pages; p++ {
			id := PageID{File: FileID(f), Page: int32(p)}
			buf, err := dev.ReadPage(id)
			if err != nil {
				return nil, fmt.Errorf("storage: imaging page %v: %w", id, err)
			}
			if !bytes.Equal(buf, zero) {
				entries = append(entries, entry{id: id, buf: buf})
			}
		}
	}
	sort.Slice(entries, func(i, j int) bool { return pageLess(entries[i].id, entries[j].id) })

	cw := &crcWriter{w: w}
	hdr := binary.LittleEndian.AppendUint32(nil, uint32(dev.PageSize()))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(files)))
	for _, file := range files {
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(file.pages))
		flag := byte(0)
		if file.auth {
			flag = 1
		}
		hdr = append(hdr, flag)
	}
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(entries)))
	if _, err := cw.Write(hdr); err != nil {
		return nil, err
	}
	ids := make([]PageID, len(entries))
	for i, e := range entries {
		ids[i] = e.id
		if e.buf == nil {
			buf, err := dev.ReadPage(e.id)
			if err != nil {
				return nil, fmt.Errorf("storage: imaging page %v: %w", e.id, err)
			}
			e.buf = buf
		}
		var pid [8]byte
		binary.LittleEndian.PutUint32(pid[0:], uint32(e.id.File))
		binary.LittleEndian.PutUint32(pid[4:], uint32(e.id.Page))
		if _, err := cw.Write(pid[:]); err != nil {
			return nil, err
		}
		if _, err := cw.Write(e.buf); err != nil {
			return nil, err
		}
	}
	if _, err := w.Write(binary.LittleEndian.AppendUint32(nil, cw.crc)); err != nil {
		return nil, err
	}
	return ids, nil
}

// pageLess orders pages by (file, page), the order an image streams them.
func pageLess(a, b PageID) bool {
	return a.File < b.File || (a.File == b.File && a.Page < b.Page)
}

// Image is an image stream read into memory and verified end to end.
// Nothing reaches a disk until Apply.
type Image struct {
	pageSize int
	files    []imageFile
	ids      []PageID
	data     []byte // the pages of ids, back to back
}

// ReadImage reads an image stream through its trailer and verifies it
// before anything is written anywhere: the page size must be in range,
// every entry must name a page inside its file's declared geometry in
// strictly ascending order, and the trailer must match the stream's
// checksum. A torn or corrupt stream fails here, so it never half-applies.
// Memory grows with the bytes actually read, never with declared counts.
func ReadImage(r io.Reader) (*Image, error) {
	cr := &crcReader{r: r}
	pageSize, err := cr.u32()
	if err != nil {
		return nil, err
	}
	if pageSize == 0 || pageSize > 1<<20 {
		return nil, fmt.Errorf("storage: image page size %d out of range", pageSize)
	}
	im := &Image{pageSize: int(pageSize)}
	nfiles, err := cr.u32()
	if err != nil {
		return nil, err
	}
	for f := uint32(0); f < nfiles; f++ {
		n, err := cr.u32()
		if err != nil {
			return nil, err
		}
		if n > math.MaxInt32 {
			return nil, fmt.Errorf("storage: image file %d declares %d pages", f, n)
		}
		var flag [1]byte
		if err := cr.read(flag[:]); err != nil {
			return nil, err
		}
		im.files = append(im.files, imageFile{pages: int(n), auth: flag[0] != 0})
	}
	entries, err := cr.u32()
	if err != nil {
		return nil, err
	}
	prev := PageID{File: -1, Page: -1}
	for i := uint32(0); i < entries; i++ {
		fv, err := cr.u32()
		if err != nil {
			return nil, err
		}
		pv, err := cr.u32()
		if err != nil {
			return nil, err
		}
		if fv >= nfiles || pv >= uint32(im.files[fv].pages) {
			return nil, fmt.Errorf("storage: image entry f%d:p%d outside declared geometry", fv, pv)
		}
		id := PageID{File: FileID(fv), Page: int32(pv)}
		if !pageLess(prev, id) {
			return nil, fmt.Errorf("storage: image entries out of order at %v", id)
		}
		prev = id
		start := len(im.data)
		im.data = append(im.data, make([]byte, pageSize)...)
		if err := cr.read(im.data[start:]); err != nil {
			return nil, err
		}
		im.ids = append(im.ids, id)
	}
	var trailer [4]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return nil, fmt.Errorf("storage: image missing trailer: %w", err)
	}
	if binary.LittleEndian.Uint32(trailer[:]) != cr.crc {
		return nil, fmt.Errorf("storage: image checksum mismatch (torn or corrupted stream)")
	}
	return im, nil
}

// PageSize returns the page size the image was cut at.
func (im *Image) PageSize() int { return im.pageSize }

// Pages returns the pages the image carries, in ascending order.
func (im *Image) Pages() []PageID { return im.ids }

// Apply writes the image onto disk: each declared file is created or grown
// to its source page count, the shipped pages are written, and every other
// pre-existing page of an authoritative file is zeroed. The stream was
// verified when it was read, so a page-size mismatch, checked before the
// first write, is the only way Apply fails on a healthy Disk.
func (im *Image) Apply(disk *Disk) error {
	if disk.PageSize() != im.pageSize {
		return fmt.Errorf("storage: image page size %d != device's %d", im.pageSize, disk.PageSize())
	}
	zero := make([]byte, im.pageSize)
	next := 0 // index of the next shipped page in im.ids
	for f, file := range im.files {
		id := FileID(f)
		for disk.Files() <= f {
			disk.CreateFile()
		}
		had := disk.NumPages(id)
		for p := had; p < file.pages; p++ {
			if _, err := disk.AllocPage(id); err != nil {
				return err
			}
		}
		for p := 0; p < max(had, file.pages); p++ {
			pid := PageID{File: id, Page: int32(p)}
			var err error
			switch {
			case next < len(im.ids) && im.ids[next] == pid:
				err = disk.WritePage(pid, im.data[next*im.pageSize:(next+1)*im.pageSize])
				next++
			case file.auth && p < had:
				err = disk.WritePage(pid, zero)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// crcWriter passes writes through, checksumming them.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, crcTable, p)
	return c.w.Write(p)
}

// crcReader reads exact lengths, checksumming them.
type crcReader struct {
	r   io.Reader
	crc uint32
	buf [4]byte
}

func (c *crcReader) read(p []byte) error {
	if _, err := io.ReadFull(c.r, p); err != nil {
		return fmt.Errorf("storage: truncated image: %w", err)
	}
	c.crc = crc32.Update(c.crc, crcTable, p)
	return nil
}

func (c *crcReader) u32() (uint32, error) {
	if err := c.read(c.buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(c.buf[:]), nil
}
