package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
)

func pipeConns(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	t.Cleanup(func() { ca.Close(); cb.Close() })
	return ca, cb
}

// serverHandshake runs the host side of the handshake with no HELLO-ACK
// decoration.
func serverHandshake(c *Conn, script string) error {
	_, err := ServerHandshakeVExt(c, script, nil)
	return err
}

func TestFrameRoundTrip(t *testing.T) {
	ca, cb := pipeConns(t)
	go func() {
		_ = ca.WriteMsg(MsgHello, Hello{Magic: Magic, Version: 1, MaxVersion: MaxVersion, Script: "broadcast", Resume: true})
	}()
	typ, payload, err := cb.ReadMsg()
	if err != nil {
		t.Fatalf("ReadMsg: %v", err)
	}
	if typ != MsgHello {
		t.Fatalf("type = %v, want MsgHello", typ)
	}
	var h Hello
	if err := Decode(payload, &h); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if h.Magic != Magic || h.Version != 1 || h.MaxVersion != MaxVersion || h.Script != "broadcast" || !h.Resume {
		t.Fatalf("round trip mangled hello: %+v", h)
	}
}

func TestHandshake(t *testing.T) {
	ca, cb := pipeConns(t)
	errCh := make(chan error, 1)
	go func() { errCh <- serverHandshake(cb, "broadcast") }()
	ack, err := ClientHandshakeResume(ca, "broadcast", false)
	if err != nil {
		t.Fatalf("ClientHandshakeResume: %v", err)
	}
	if ack.Script != "broadcast" || ack.Version != MaxVersion {
		t.Fatalf("ack = %+v", ack)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("ServerHandshakeVExt: %v", err)
	}
}

func TestHandshakeScriptMismatch(t *testing.T) {
	ca, cb := pipeConns(t)
	errCh := make(chan error, 1)
	go func() { errCh <- serverHandshake(cb, "lock_manager") }()
	_, err := ClientHandshakeResume(ca, "broadcast", false)
	if err == nil || !strings.Contains(err.Error(), "lock_manager") {
		t.Fatalf("client err = %v, want script-mismatch rejection", err)
	}
	if err := <-errCh; err == nil {
		t.Fatal("server accepted mismatched script")
	}
}

// TestHandshakeVersionMismatch checks that a HELLO whose version range
// excludes the one protocol the host speaks is rejected with a protocol
// error, whether the range lies above it or below it.
func TestHandshakeVersionMismatch(t *testing.T) {
	cases := []struct {
		name  string
		hello Hello
	}{
		{"future version", Hello{Magic: Magic, Version: MaxVersion + 7}},
		{"v1 only", Hello{Magic: Magic, Version: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ca, cb := pipeConns(t)
			errCh := make(chan error, 1)
			go func() { errCh <- serverHandshake(cb, "s") }()
			if err := ca.WriteMsg(MsgHello, tc.hello); err != nil {
				t.Fatal(err)
			}
			typ, payload, err := ca.ReadMsg()
			if err != nil {
				t.Fatal(err)
			}
			if typ != MsgError {
				t.Fatalf("reply = %v, want MsgError", typ)
			}
			var pe ProtoError
			if err := Decode(payload, &pe); err != nil || !strings.Contains(pe.Msg, "protocol") {
				t.Fatalf("ProtoError = %+v (%v), want a protocol-version rejection", pe, err)
			}
			if err := <-errCh; err == nil {
				t.Fatal("server accepted wrong version")
			}
		})
	}
}

func TestFrameLengthGuard(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		// A frame claiming to be larger than MaxFrame must be rejected
		// before any allocation of that size.
		hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF, byte(MsgHello)}
		a.Write(hdr)
	}()
	c := NewConn(b)
	c.SetReadTimeout(2 * time.Second)
	if _, _, err := c.ReadMsg(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("ReadMsg = %v, want out-of-range error", err)
	}
}

func TestErrorTaxonomyRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		in   error
		is   error
	}{
		{"nil", nil, nil},
		{"role absent", fmt.Errorf("%w: recipient[2]", core.ErrRoleAbsent), core.ErrRoleAbsent},
		{"role finished", fmt.Errorf("%w: sender", core.ErrRoleFinished), core.ErrRoleFinished},
		{"unknown role", fmt.Errorf("%w: ghost", core.ErrUnknownRole), core.ErrUnknownRole},
		{"draining", core.ErrDraining, core.ErrDraining},
		{"closed", core.ErrClosed, core.ErrClosed},
		{"no branches", core.ErrNoBranches, core.ErrNoBranches},
		{"canceled", context.Canceled, context.Canceled},
		{"deadline", context.DeadlineExceeded, context.DeadlineExceeded},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := EncodeError(tc.in).Err()
			if tc.in == nil {
				if out != nil {
					t.Fatalf("nil error round-tripped to %v", out)
				}
				return
			}
			if !errors.Is(out, tc.is) {
				t.Fatalf("errors.Is(%v, %v) = false after round trip", out, tc.is)
			}
			if out.Error() != tc.in.Error() {
				t.Fatalf("message changed: %q -> %q", tc.in.Error(), out.Error())
			}
		})
	}
}

func TestAbortErrorRoundTrip(t *testing.T) {
	in := &core.AbortError{
		Script:      "broadcast",
		Performance: 7,
		Culprit:     ids.Member("recipient", 2),
		Reason:      "enroller disconnected",
	}
	out := EncodeError(in).Err()
	if !errors.Is(out, core.ErrPerformanceAborted) {
		t.Fatal("reconstructed abort does not unwrap to ErrPerformanceAborted")
	}
	var ae *core.AbortError
	if !errors.As(out, &ae) {
		t.Fatal("reconstructed abort is not *core.AbortError")
	}
	if ae.Culprit != in.Culprit || ae.Performance != 7 || ae.Script != "broadcast" || ae.Reason != in.Reason {
		t.Fatalf("abort fields mangled: %+v", ae)
	}
}

func TestRoleErrorRoundTrip(t *testing.T) {
	in := &core.RoleError{Script: "s", Role: ids.Role("sender"), Err: errors.New("boom")}
	out := EncodeError(in).Err()
	var re *core.RoleError
	if !errors.As(out, &re) {
		t.Fatalf("reconstructed %v is not *core.RoleError", out)
	}
	if re.Role != in.Role || re.Err.Error() != "boom" {
		t.Fatalf("role error mangled: %+v", re)
	}
}

func TestWithRoundTrip(t *testing.T) {
	with := map[ids.RoleRef]ids.PIDSet{
		ids.Role("sender"):        ids.NewPIDSet("A", "B"),
		ids.Member("helper", 2):   ids.NewPIDSet("C"),
		ids.Role("unconstrained"): nil,
	}
	enc := EncodeWith(with)
	if _, ok := enc["unconstrained"]; ok {
		t.Fatal("nil (unconstrained) set should be dropped from the wire form")
	}
	dec, err := DecodeWith(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !dec[ids.Role("sender")].Contains("A") || !dec[ids.Role("sender")].Contains("B") {
		t.Fatalf("sender constraint mangled: %v", dec)
	}
	if !dec[ids.Member("helper", 2)].Contains("C") {
		t.Fatalf("helper constraint mangled: %v", dec)
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	ca, _ := pipeConns(t)
	ca.Close()
	if err := ca.WriteMsg(MsgHeartbeat, Heartbeat{}); err == nil {
		t.Fatal("WriteMsg on closed conn succeeded")
	}
}

// TestOverloadErrorRoundTrip checks that an admission-control rejection
// survives the wire with its identity (errors.Is/As) and its RetryAfter
// hint intact.
func TestOverloadErrorRoundTrip(t *testing.T) {
	in := &core.OverloadError{
		Script:     "broadcast",
		RetryAfter: 75 * time.Millisecond,
		Reason:     "enrollment cap (4) reached",
	}
	out := EncodeError(in).Err()
	if !errors.Is(out, core.ErrOverloaded) {
		t.Fatal("reconstructed overload does not unwrap to ErrOverloaded")
	}
	var oe *core.OverloadError
	if !errors.As(out, &oe) {
		t.Fatalf("reconstructed %v is not *core.OverloadError", out)
	}
	if oe.Script != in.Script || oe.Reason != in.Reason || oe.RetryAfter != in.RetryAfter {
		t.Fatalf("overload fields mangled: %+v", oe)
	}
	if out.Error() != in.Error() {
		t.Fatalf("message changed: %q -> %q", in.Error(), out.Error())
	}
}

// TestOverloadSentinelRoundTrip checks the bare-sentinel form (no typed
// detail) still crosses as ErrOverloaded.
func TestOverloadSentinelRoundTrip(t *testing.T) {
	out := EncodeError(fmt.Errorf("%w: busy", core.ErrOverloaded)).Err()
	if !errors.Is(out, core.ErrOverloaded) {
		t.Fatalf("errors.Is(%v, ErrOverloaded) = false after round trip", out)
	}
}

// TestHandshakeOverloaded checks that a host at its connection cap can
// reject the handshake with OVERLOADED and the client surfaces it as a
// *core.OverloadError carrying the retry-after hint.
func TestHandshakeOverloaded(t *testing.T) {
	ca, cb := pipeConns(t)
	ca.SetReadTimeout(2 * time.Second)
	done := make(chan error, 1)
	go func() {
		// Host side at the conn cap: OVERLOADED in place of HELLO-ACK. (A
		// real host skips reading HELLO; the synchronous test pipe has no
		// kernel buffer, so drain it here.)
		if _, _, err := cb.ReadMsg(); err != nil {
			done <- err
			return
		}
		done <- cb.WriteMsg(MsgOverloaded, Overloaded{RetryAfterMS: 50, Msg: "connection cap reached"})
	}()
	_, err := ClientHandshakeResume(ca, "broadcast", false)
	if werr := <-done; werr != nil {
		t.Fatalf("host write: %v", werr)
	}
	if !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("ClientHandshakeResume err = %v, want ErrOverloaded", err)
	}
	var oe *core.OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("handshake rejection %v is not *core.OverloadError", err)
	}
	if oe.RetryAfter != 50*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want 50ms", oe.RetryAfter)
	}
}
