package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Snapshot file layout:
//
//	"BFSNAP1\n" [u64 lsn] [u32 crc32c of payload] [payload]
//
// The file is written atomically (WriteFileAtomic), so a crash mid-write
// can never shadow an older valid snapshot with a torn new one.

// WriteSnapshot durably writes a snapshot covering every record with
// LSN <= lsn and returns its path.
func WriteSnapshot(dir string, lsn uint64, payload []byte) (string, error) {
	name := fmt.Sprintf("%s%016x%s", snapPrefix, lsn, snapSuffix)
	hdr := make([]byte, 0, len(snapMagic)+12)
	hdr = append(hdr, snapMagic...)
	hdr = binary.LittleEndian.AppendUint64(hdr, lsn)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(payload, castagnoli))
	if err := WriteFileAtomic(dir, name, hdr, payload); err != nil {
		return "", err
	}
	return filepath.Join(dir, name), nil
}

// WriteFileAtomic durably writes the concatenated parts to dir/name,
// creating dir if needed: it writes a temp file (name.tmp-*), fsyncs it,
// renames it into place and fsyncs dir, so a crash leaves either the old
// file or the whole new one, never a torn one under name.
func WriteFileAtomic(dir, name string, parts ...[]byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	for _, p := range parts {
		if _, err := tmp.Write(p); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return err
	}
	return syncDir(dir)
}

// LatestSnapshot loads the newest valid snapshot in dir, returning its LSN
// boundary and payload. A snapshot that fails its checksum is skipped in
// favor of the next older one; (0, nil, nil) means no snapshot exists (a
// cold start: replay the whole log).
func LatestSnapshot(dir string) (uint64, []byte, error) {
	snaps, err := listSnapshots(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil, nil
		}
		return 0, nil, err
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		lsn, payload, err := readSnapshot(filepath.Join(dir, snaps[i].name))
		if err == nil {
			return lsn, payload, nil
		}
	}
	if len(snaps) > 0 {
		return 0, nil, fmt.Errorf("%w: every snapshot in %s failed validation", ErrCorrupt, dir)
	}
	return 0, nil, nil
}

func readSnapshot(path string) (uint64, []byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	hdrLen := len(snapMagic) + 12
	if len(b) < hdrLen || string(b[:len(snapMagic)]) != snapMagic {
		return 0, nil, fmt.Errorf("%w: snapshot %s has a bad header", ErrCorrupt, path)
	}
	lsn := binary.LittleEndian.Uint64(b[len(snapMagic):])
	crc := binary.LittleEndian.Uint32(b[len(snapMagic)+8:])
	payload := b[hdrLen:]
	if crc32.Checksum(payload, castagnoli) != crc {
		return 0, nil, fmt.Errorf("%w: snapshot %s fails its checksum", ErrCorrupt, path)
	}
	return lsn, payload, nil
}

type snapFile struct {
	name string
	lsn  uint64
}

// listSnapshots returns the snapshots in dir sorted by LSN, oldest first.
func listSnapshots(dir string) ([]snapFile, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var snaps []snapFile
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		hexpart := strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix)
		lsn, err := strconv.ParseUint(hexpart, 16, 64)
		if err != nil {
			continue
		}
		snaps = append(snaps, snapFile{name: name, lsn: lsn})
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].lsn < snaps[j].lsn })
	return snaps, nil
}

// sweepTempSnapshots removes snapshot temp files orphaned by a crash
// between CreateTemp and the rename in WriteSnapshot. Best-effort: Open
// calls it once per boot so repeated crash cycles cannot accumulate
// full-state-sized dead files.
func sweepTempSnapshots(dir string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, snapPrefix) && strings.Contains(name, snapSuffix+".tmp-") {
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
}

// pruneSnapshots deletes all but the keep newest snapshots.
func pruneSnapshots(dir string, keep int) error {
	snaps, err := listSnapshots(dir)
	if err != nil {
		return err
	}
	for i := 0; i < len(snaps)-keep; i++ {
		if err := os.Remove(filepath.Join(dir, snaps[i].name)); err != nil {
			return err
		}
	}
	return nil
}
