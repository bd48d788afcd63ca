// The job subsystem's write-ahead log: one file per accepted job,
// holding the job's request and lifecycle state, in the crash-safe
// record format the snapshot store's disk tier also uses
// (internal/recfile). The log makes accepted work a durable promise: a
// coordinator crash loses no accepted job — on restart, queued and
// mid-run jobs are re-admitted and re-run, and finished jobs keep
// serving their exact result bytes (the encoded response body is
// persisted verbatim, so GET /v1/jobs/{id}/result after a restart is
// byte-identical to before it).
//
// A torn write from a crash leaves a temp file or a checksum-invalid
// entry, both swept at startup, so the log self-heals by dropping
// exactly the entry that was mid-write — never by refusing to start.
package service

import (
	"sort"
	"strconv"
	"strings"

	"deviant/internal/recfile"
)

// jobMagic leads every job-log file; a file without it is not ours.
var jobMagic = []byte("DVJOBL1\n")

// jobTmpPrefix marks in-progress writes; openJobLog sweeps leftovers.
const jobTmpPrefix = recfile.TmpPrefix

const jobSuffix = ".job"

// jobEntry is the serialized form of one job. Resp holds the encoded
// HTTP body for a done job — the exact bytes the result endpoint
// serves — rather than the decoded struct, so recovery cannot perturb
// a single byte through a decode/re-encode round trip.
type jobEntry struct {
	ID     string
	Tenant string
	State  string
	ErrMsg string
	Req    AnalyzeRequest
	Resp   []byte
}

// jobLog is the persistent tier, one directory of entry files.
type jobLog struct {
	dir *recfile.Dir[jobEntry]
}

// jobIDNum extracts the numeric tail of a "job-N" id (0 if foreign).
func jobIDNum(id string) int64 {
	n, _ := strconv.ParseInt(strings.TrimPrefix(id, "job-"), 10, 64)
	return n
}

// openJobLog prepares dir as a job log: creates it if needed, removes
// temp files abandoned by crashed writers, verifies every entry's magic
// + checksum + name, deletes the ones that fail (returned as the
// corrupt count), and returns the surviving entries in submission
// (numeric id) order.
func openJobLog(dir string) (*jobLog, []jobEntry, int64, error) {
	var entries []jobEntry
	d, corrupt, err := recfile.Open(dir, jobMagic, jobSuffix,
		func(e *jobEntry) string { return e.ID },
		func(e *jobEntry) { entries = append(entries, *e) })
	if err != nil {
		return nil, nil, 0, err
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := jobIDNum(entries[i].ID), jobIDNum(entries[j].ID)
		if a != b {
			return a < b
		}
		return entries[i].ID < entries[j].ID
	})
	return &jobLog{dir: d}, entries, corrupt, nil
}

// write persists one entry atomically, replacing any previous state for
// the same job.
func (l *jobLog) write(e *jobEntry) error { return l.dir.Write(e.ID, e) }

// remove forgets one job's entry (history eviction).
func (l *jobLog) remove(id string) { l.dir.Remove(id) }
