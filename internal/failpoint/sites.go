// Package failpoint is butterflyd's deterministic fault-injection plane
// (DESIGN.md §15). Code that touches the outside world — disk, sockets,
// worker dispatch — declares named injection sites; a build with the
// `failpoints` tag can arm each site with a policy (error once, error every
// Nth, delay, panic, short write, decode corruption) via a flag or the
// BUTTERFLY_FAILPOINTS environment variable. The default build compiles
// every hook to an inlinable no-op (stub.go), so production binaries pay
// nothing and cannot be armed.
//
// Policy grammar, per site:
//
//	[COUNT*]KIND[(ARG)][%EVERY]
//
//	1*error          fail exactly once, then heal
//	error%3          fail every 3rd evaluation, forever
//	delay(50ms)      sleep 50ms at every evaluation
//	1*panic          panic once (worker-dispatch sites: quarantine drill)
//	shortwrite(7)    write 7 bytes, then report an injected error
//	1*corrupt        one decode-time corruption (Fire sites)
//
// A full activation spec is comma-separated site=policy pairs, e.g.
//
//	BUTTERFLY_FAILPOINTS='store.append=1*error,server.feed=1*panic'
//
// This file is shared by both builds: the site registry must exist even in
// stub binaries so tooling (and the chaos-matrix coverage test) can
// enumerate what a failpoints build would offer.
package failpoint

import "errors"

// EnvVar is the environment variable Setup consults when it is given no
// explicit spec.
const EnvVar = "BUTTERFLY_FAILPOINTS"

// ErrInjected is the sentinel wrapped by every injected error, so tests and
// callers can tell a synthetic fault from a real one with errors.Is.
var ErrInjected = errors.New("failpoint: injected fault")

// Injection sites. Each constant names one place the code consults the
// plane; the chaos matrix (internal/server/chaos_test.go) must exercise
// every one of them or its coverage test fails.
const (
	// SiteStoreCreate gates opening a fresh session WAL (store.Create):
	// ENOSPC or a missing data dir at session admission.
	SiteStoreCreate = "store.create"
	// SiteStoreAppend gates every WAL record append: ENOSPC mid-session.
	SiteStoreAppend = "store.append"
	// SiteStoreFsync gates every WAL fsync: a dying disk under per-ack.
	SiteStoreFsync = "store.fsync"
	// SiteStoreRotate gates segment rotation: ENOSPC at a seal boundary.
	SiteStoreRotate = "store.rotate"
	// SiteStoreWrite wraps the segment file writer: short writes here leave
	// torn records for recovery to truncate.
	SiteStoreWrite = "store.write"

	// SiteProtoDecode fires inside DecodeEpochInto: a deterministic
	// decode-time corruption, surfaced as a protocol error.
	SiteProtoDecode = "proto.decode"

	// SiteServerRead gates each server-side frame read: read stalls and
	// synthetic connection drops.
	SiteServerRead = "server.read"
	// SiteServerWrite wraps the server's connection writer: partial frame
	// writes and write errors toward the client.
	SiteServerWrite = "server.write"
	// SiteServerFeed gates each epoch tick's dispatch into the driver: the
	// lifeguard-panic quarantine drill.
	SiteServerFeed = "server.feed"

	// SiteCorePass fires at the top of every first-pass block analysis — a
	// panic here erupts on a pipeline-worker goroutine, proving the
	// driver's panic containment, not just the server's recover.
	SiteCorePass = "core.pass"

	// SiteClientDial gates each client dial attempt.
	SiteClientDial = "client.dial"
	// SiteClientSend gates each client epoch send: mid-stream drops.
	SiteClientSend = "client.send"
	// SiteClientRead gates each client frame read.
	SiteClientRead = "client.read"
)

// registered is the authoritative site list. Keep in registration order.
var registered = []string{
	SiteStoreCreate,
	SiteStoreAppend,
	SiteStoreFsync,
	SiteStoreRotate,
	SiteStoreWrite,
	SiteProtoDecode,
	SiteServerRead,
	SiteServerWrite,
	SiteServerFeed,
	SiteCorePass,
	SiteClientDial,
	SiteClientSend,
	SiteClientRead,
}

// Sites returns a copy of the full site registry, in registration order.
func Sites() []string {
	return append([]string(nil), registered...)
}

// IsSite reports whether name is a registered injection site.
func IsSite(name string) bool {
	for _, s := range registered {
		if s == name {
			return true
		}
	}
	return false
}
