package wal

import (
	"encoding/binary"
	"fmt"

	"spatialjoin/internal/storage"
)

// The catalog lives in the log: collection and join-index registrations are
// ordinary records inside the transaction that created the object, so a
// crash either preserves both the object's pages and its registration or
// neither. Payloads are length-prefixed strings followed by file IDs.

// NewCollection is the decoded payload of a RecNewCollection record.
type NewCollection struct {
	Name     string
	HeapFile storage.FileID
}

// NewJoinIndex is the decoded payload of a RecNewJoinIndex record.
type NewJoinIndex struct {
	R, S     string
	Operator string
	PairFile storage.FileID
}

func putString(buf []byte, s string) []byte {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
	return append(append(buf, n[:]...), s...)
}

func getString(buf []byte) (string, []byte, error) {
	if len(buf) < 4 {
		return "", nil, fmt.Errorf("wal: truncated catalog string")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if n < 0 || len(buf)-4 < n {
		return "", nil, fmt.Errorf("wal: catalog string of %d bytes overruns payload", n)
	}
	return string(buf[4 : 4+n]), buf[4+n:], nil
}

func putFile(buf []byte, f storage.FileID) []byte {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(f))
	return append(buf, n[:]...)
}

func getFile(buf []byte) (storage.FileID, []byte, error) {
	if len(buf) < 4 {
		return 0, nil, fmt.Errorf("wal: truncated catalog file id")
	}
	return storage.FileID(binary.LittleEndian.Uint32(buf)), buf[4:], nil
}

// EncodeNewCollection serializes a collection registration.
func EncodeNewCollection(c NewCollection) []byte {
	return putFile(putString(nil, c.Name), c.HeapFile)
}

// DecodeNewCollection parses a RecNewCollection payload.
func DecodeNewCollection(data []byte) (NewCollection, error) {
	var c NewCollection
	var err error
	if c.Name, data, err = getString(data); err != nil {
		return c, err
	}
	if c.HeapFile, _, err = getFile(data); err != nil {
		return c, err
	}
	return c, nil
}

// EncodeNewJoinIndex serializes a join-index registration.
func EncodeNewJoinIndex(j NewJoinIndex) []byte {
	buf := putString(nil, j.R)
	buf = putString(buf, j.S)
	buf = putString(buf, j.Operator)
	return putFile(buf, j.PairFile)
}

// DecodeNewJoinIndex parses a RecNewJoinIndex payload.
func DecodeNewJoinIndex(data []byte) (NewJoinIndex, error) {
	var j NewJoinIndex
	var err error
	if j.R, data, err = getString(data); err != nil {
		return j, err
	}
	if j.S, data, err = getString(data); err != nil {
		return j, err
	}
	if j.Operator, data, err = getString(data); err != nil {
		return j, err
	}
	if j.PairFile, _, err = getFile(data); err != nil {
		return j, err
	}
	return j, nil
}
