package wire

import (
	"errors"
	"testing"
)

// TestSessionDoomedPastCap writes a detached session's stream frames past
// its retransmit cap: the session is doomed from the overflowing frame on,
// and a later Resume refuses with ErrSessionDoomed instead of replaying an
// incomplete suffix.
func TestSessionDoomedPastCap(t *testing.T) {
	const capBytes = 256
	s := NewSession(nil, "token", capBytes)
	send := Send{To: "recipient[1]", Tag: "t", Val: "0123456789abcdef"}
	written := 0
	for !s.Doomed() {
		if written > capBytes {
			t.Fatalf("%d frames retained past a %d-byte cap without dooming the session", written, capBytes)
		}
		if err := s.WriteFrame(MsgSend, 1, uint64(written+1), send); err != nil {
			t.Fatal(err)
		}
		written++
	}
	if written < 2 {
		t.Fatalf("the first frame already doomed the session; the cap is too small to test retention")
	}
	if err := s.Resume(nil, 0); !errors.Is(err, ErrSessionDoomed) {
		t.Fatalf("Resume of a doomed session = %v, want ErrSessionDoomed", err)
	}
}
