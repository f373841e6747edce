package main

import (
	"context"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"

	"bombdroid/internal/market/marketfs"
)

// countingFS wraps the real filesystem behind market.Config.FS and
// counts what the store asks of the disk: syncs (file and directory),
// bytes written, and committed checkpoints (renames onto a ckpt-*
// name).
type countingFS struct {
	marketfs.FS
	syncs, bytes, ckpts atomic.Int64
}

func newCountingFS() *countingFS { return &countingFS{FS: marketfs.OS{}} }

type countingFile struct {
	marketfs.File
	fs *countingFS
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

func (c *countingFS) wrap(f marketfs.File, err error) (marketfs.File, error) {
	if err != nil {
		return nil, err
	}
	return countingFile{File: f, fs: c}, nil
}

func (c *countingFS) Open(name string) (marketfs.File, error) { return c.wrap(c.FS.Open(name)) }
func (c *countingFS) OpenAppend(name string) (marketfs.File, error) {
	return c.wrap(c.FS.OpenAppend(name))
}
func (c *countingFS) Create(name string) (marketfs.File, error) { return c.wrap(c.FS.Create(name)) }

func (c *countingFS) WriteFile(name string, data []byte) error {
	c.bytes.Add(int64(len(data)))
	return c.FS.WriteFile(name, data)
}

func (c *countingFS) Rename(oldname, newname string) error {
	err := c.FS.Rename(oldname, newname)
	if err == nil && strings.HasPrefix(filepath.Base(newname), "ckpt-") {
		c.ckpts.Add(1)
	}
	return err
}

func (c *countingFS) SyncDir(dir string) error {
	c.syncs.Add(1)
	return c.FS.SyncDir(dir)
}

// fsCounts is a snapshot of a countingFS.
type fsCounts struct{ syncs, bytes, ckpts int64 }

func (c *countingFS) snapshot() fsCounts {
	if c == nil {
		return fsCounts{}
	}
	return fsCounts{c.syncs.Load(), c.bytes.Load(), c.ckpts.Load()}
}

func (a fsCounts) sub(b fsCounts) fsCounts {
	return fsCounts{a.syncs - b.syncs, a.bytes - b.bytes, a.ckpts - b.ckpts}
}

// countingTransport sits behind cluster.Config.HTTPClient and counts
// the router's requests to its nodes. A caller that wants the count
// for one router call puts a counter in the call's context; the
// router passes its context on to every node request.
type countingTransport struct{ base http.RoundTripper }

type reqCounterKey struct{}

func withReqCounter(ctx context.Context, n *atomic.Int64) context.Context {
	return context.WithValue(ctx, reqCounterKey{}, n)
}

func (t countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if n, ok := req.Context().Value(reqCounterKey{}).(*atomic.Int64); ok {
		n.Add(1)
	}
	return t.base.RoundTrip(req)
}
