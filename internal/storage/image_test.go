package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"
)

// imageFixture builds a three-file disk with content, all-zero pages, and
// an empty file, the shapes an image must reproduce.
func imageFixture(t testing.TB, pageSize int) *Disk {
	t.Helper()
	d := NewDisk(pageSize)
	for f, pages := range []int{5, 3, 0} {
		id := d.CreateFile()
		for p := 0; p < pages; p++ {
			pid, err := d.AllocPage(id)
			if err != nil {
				t.Fatal(err)
			}
			if p%2 == 1 {
				continue // leave odd pages all zero
			}
			buf := bytes.Repeat([]byte{byte(16*f + p + 1)}, pageSize)
			if err := d.WritePage(pid, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	return d
}

func allFiles(FileID) bool { return true }

// diskPages copies every page of d, per file, for comparison.
func diskPages(t testing.TB, d *Disk) [][][]byte {
	t.Helper()
	out := make([][][]byte, d.Files())
	for f := range out {
		for p := 0; p < d.NumPages(FileID(f)); p++ {
			buf, err := d.ReadPage(PageID{File: FileID(f), Page: int32(p)})
			if err != nil {
				t.Fatal(err)
			}
			out[f] = append(out[f], buf)
		}
	}
	return out
}

func equalPages(a, b [][][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for f := range a {
		if len(a[f]) != len(b[f]) {
			return false
		}
		for p := range a[f] {
			if !bytes.Equal(a[f][p], b[f][p]) {
				return false
			}
		}
	}
	return true
}

// readAndApply is what every caller does: verify the whole stream, and only
// then write it onto dst.
func readAndApply(data []byte, dst *Disk) error {
	img, err := ReadImage(bytes.NewReader(data))
	if err != nil {
		return err
	}
	return img.Apply(dst)
}

func TestImageRoundTripIsPageForPage(t *testing.T) {
	src := imageFixture(t, 64)
	var buf bytes.Buffer
	ids, err := WriteImage(&buf, src, nil, allFiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 5 { // pages 0, 2, 4 of file 0 and 0, 2 of file 1
		t.Errorf("shipped %v, want the 5 non-zero pages", ids)
	}
	dst := NewDisk(64)
	if err := readAndApply(buf.Bytes(), dst); err != nil {
		t.Fatal(err)
	}
	if !equalPages(diskPages(t, src), diskPages(t, dst)) {
		t.Fatal("round trip onto a fresh disk is not page-for-page identical")
	}
	for f := 0; f < src.Files(); f++ {
		for p := 0; p < src.NumPages(FileID(f)); p++ {
			id := PageID{File: FileID(f), Page: int32(p)}
			want, _ := src.Checksum(id)
			if got, _ := dst.Checksum(id); got != want {
				t.Errorf("%v: checksum %08x, want %08x", id, got, want)
			}
		}
	}
}

func TestImageDeltaPatchesInPlace(t *testing.T) {
	src := imageFixture(t, 64)
	// The destination diverged: stale bytes in every page, an extra page
	// in the authoritative file 0, and one extra page in file 1.
	dst := imageFixture(t, 64)
	for _, f := range []FileID{0, 1} {
		if _, err := dst.AllocPage(f); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < dst.NumPages(f); p++ {
			if err := dst.WritePage(PageID{File: f, Page: int32(p)}, bytes.Repeat([]byte{0xEE}, 64)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var buf bytes.Buffer
	set := []PageID{{File: 1, Page: 2}, {File: 1, Page: 2}, {File: 0, Page: 1}}
	ids, err := WriteImage(&buf, src, set, func(f FileID) bool { return f == 0 })
	if err != nil {
		t.Fatal(err)
	}
	// File 0 ships its non-zero pages; the listed page of it is already
	// covered, and the duplicate of file 1's page ships once.
	want := []PageID{{File: 0, Page: 0}, {File: 0, Page: 2}, {File: 0, Page: 4}, {File: 1, Page: 2}}
	if len(ids) != len(want) {
		t.Fatalf("shipped %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("shipped %v, want %v", ids, want)
		}
	}
	if err := readAndApply(buf.Bytes(), dst); err != nil {
		t.Fatal(err)
	}
	got, srcPages := diskPages(t, dst), diskPages(t, src)
	// The authoritative file is reproduced exactly, its extra page zeroed.
	for p := 0; p < 6; p++ {
		wantPage := make([]byte, 64)
		if p < 5 {
			wantPage = srcPages[0][p]
		}
		if !bytes.Equal(got[0][p], wantPage) {
			t.Errorf("authoritative f0:p%d = %x..., want %x...", p, got[0][p][:2], wantPage[:2])
		}
	}
	// The other file takes the shipped page and keeps the rest.
	for p := 0; p < 4; p++ {
		wantPage := bytes.Repeat([]byte{0xEE}, 64)
		if p == 2 {
			wantPage = srcPages[1][2]
		}
		if !bytes.Equal(got[1][p], wantPage) {
			t.Errorf("f1:p%d = %x..., want %x...", p, got[1][p][:2], wantPage[:2])
		}
	}
}

// imageStream encodes an image by hand, with a correct trailer unless
// badTrailer, so structural checks can be reached past the checksum.
func imageStream(pageSize uint32, files [][2]uint32, entries [][2]uint32, badTrailer bool) []byte {
	b := binary.LittleEndian.AppendUint32(nil, pageSize)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(files)))
	for _, f := range files {
		b = binary.LittleEndian.AppendUint32(b, f[0])
		b = append(b, byte(f[1]))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(entries)))
	for _, e := range entries {
		b = binary.LittleEndian.AppendUint32(b, e[0])
		b = binary.LittleEndian.AppendUint32(b, e[1])
		b = append(b, bytes.Repeat([]byte{0xAB}, int(pageSize))...)
	}
	sum := crc32.Checksum(b, crcTable)
	if badTrailer {
		sum++
	}
	return binary.LittleEndian.AppendUint32(b, sum)
}

// TestImageBadTrailerLeavesDiskUnchanged declares a 50,000-page
// authoritative file and fails its trailer: the destination keeps its page
// count and bytes, because nothing is written before the trailer verifies.
func TestImageBadTrailerLeavesDiskUnchanged(t *testing.T) {
	dst := imageFixture(t, 64)
	before := diskPages(t, dst)
	stream := imageStream(64, [][2]uint32{{50000, 1}}, nil, true)
	err := readAndApply(stream, dst)
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("bad trailer: err = %v, want a checksum mismatch", err)
	}
	if n := dst.NumPages(0); n != 5 {
		t.Errorf("failed image resized file 0 to %d pages, want 5", n)
	}
	if !equalPages(before, diskPages(t, dst)) {
		t.Error("failed image changed the destination's bytes")
	}

	// A valid image torn anywhere before its end fails the same way.
	var buf bytes.Buffer
	if _, err := WriteImage(&buf, imageFixture(t, 64), nil, allFiles); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut += 7 {
		if err := readAndApply(full[:cut], dst); err == nil {
			t.Fatalf("image torn at %d of %d bytes applied", cut, len(full))
		}
	}
	if !equalPages(before, diskPages(t, dst)) {
		t.Error("torn images changed the destination")
	}
}

func TestImageRejectsMalformedStreams(t *testing.T) {
	cases := []struct {
		name   string
		stream []byte
		disk   int // destination page size
		want   string
	}{
		{"out-of-order entry", imageStream(64, [][2]uint32{{4, 1}}, [][2]uint32{{0, 2}, {0, 1}}, false),
			64, "out of order"},
		{"duplicate entry", imageStream(64, [][2]uint32{{4, 1}}, [][2]uint32{{0, 1}, {0, 1}}, false),
			64, "out of order"},
		{"entry past its file", imageStream(64, [][2]uint32{{4, 1}}, [][2]uint32{{0, 4}}, false),
			64, "outside declared geometry"},
		{"entry in an undeclared file", imageStream(64, [][2]uint32{{4, 1}}, [][2]uint32{{1, 0}}, false),
			64, "outside declared geometry"},
		{"page size out of range", imageStream(0, nil, nil, false), 64, "out of range"},
		{"page size mismatch", imageStream(64, [][2]uint32{{4, 1}}, [][2]uint32{{0, 1}}, false),
			128, "page size 64 != device's 128"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dst := NewDisk(tc.disk)
			err := readAndApply(tc.stream, dst)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
			if dst.Files() != 0 {
				t.Errorf("rejected image created %d files", dst.Files())
			}
		})
	}
}

// FuzzImageReader feeds arbitrary bytes to the image reader the way every
// caller uses it — verify, then apply — and asserts that it never panics,
// that no stream reaches a disk unless its trailer matches its checksum,
// and that every accepted stream applies with its pages landing as shipped.
func FuzzImageReader(f *testing.F) {
	src := imageFixture(f, 64)
	var full, delta bytes.Buffer
	if _, err := WriteImage(&full, src, nil, allFiles); err != nil {
		f.Fatal(err)
	}
	if _, err := WriteImage(&delta, src, []PageID{{File: 1, Page: 2}}, func(id FileID) bool { return id == 0 }); err != nil {
		f.Fatal(err)
	}
	f.Add(full.Bytes())
	f.Add(delta.Bytes())
	f.Add(full.Bytes()[:len(full.Bytes())/2])
	f.Add(imageStream(64, [][2]uint32{{50000, 1}}, nil, true))
	f.Add(imageStream(64, [][2]uint32{{4, 1}}, [][2]uint32{{0, 2}, {0, 1}}, false))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		img, err := ReadImage(r)
		if err != nil {
			return // rejected before any disk was touched
		}
		n := len(data) - r.Len()
		if n < 4 || crc32.Checksum(data[:n-4], crcTable) != binary.LittleEndian.Uint32(data[n-4:n]) {
			t.Fatalf("accepted a %d-byte stream whose trailer does not verify", n)
		}
		budget := 1 << 22 / img.pageSize
		for _, file := range img.files {
			if budget -= file.pages; budget < 0 {
				return // verified, but too large to materialize here
			}
		}
		dst := NewDisk(img.pageSize)
		if err := img.Apply(dst); err != nil {
			t.Fatalf("verified image failed to apply: %v", err)
		}
		for i, id := range img.ids {
			got, err := dst.ReadPage(id)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, img.data[i*img.pageSize:(i+1)*img.pageSize]) {
				t.Fatalf("%v did not land as shipped", id)
			}
		}
	})
}
