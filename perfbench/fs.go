package main

import (
	"os"

	"repro/internal/vfs"
)

// pageCacheFS is the redo log's file system: every file operation goes
// to the real OS, so each commit pays for record encoding, the write
// system call and the Sync call, but Sync does not flush to the device.
// That is what fsync costs on tmpfs, and it keeps the benchmark
// measuring the log code path rather than a shared disk, whose fsync
// latency swung throughput by 2x between runs. The engine still counts
// every Sync it issues (hana_wal_syncs_total).
type pageCacheFS struct{}

func (pageCacheFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := vfs.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return pageCacheFile{f}, nil
}

func (pageCacheFS) Remove(name string) error                     { return vfs.OS.Remove(name) }
func (pageCacheFS) MkdirAll(path string, perm os.FileMode) error { return vfs.OS.MkdirAll(path, perm) }
func (pageCacheFS) ReadDir(name string) ([]os.DirEntry, error)   { return vfs.OS.ReadDir(name) }
func (pageCacheFS) Stat(name string) (os.FileInfo, error)        { return vfs.OS.Stat(name) }

type pageCacheFile struct{ vfs.File }

// Sync leaves the written bytes in the page cache (see pageCacheFS).
func (pageCacheFile) Sync() error { return nil }
