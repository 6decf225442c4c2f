package wire

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/scriptabs/goscript/internal/core"
)

// roundTripV2 encodes m under v2 and decodes it back, failing the test on
// any asymmetry in the envelope.
func roundTripV2(t *testing.T, typ MsgType, stream, seq uint64, m any) any {
	t.Helper()
	payload, err := AppendPayload(nil, 2, typ, stream, seq, m)
	if err != nil {
		t.Fatalf("AppendPayload(%s): %v", typ, err)
	}
	gs, gq, out, err := ParsePayload(2, typ, payload)
	if err != nil {
		t.Fatalf("ParsePayload(%s): %v", typ, err)
	}
	if gs != stream || gq != seq {
		t.Fatalf("%s envelope = (%d, %d), want (%d, %d)", typ, gs, gq, stream, seq)
	}
	return out
}

func TestV2RoundTripAllMessages(t *testing.T) {
	enroll := &Enroll{
		PID:        "worker-7",
		Role:       "recipient[3]",
		Args:       []any{"hello", 42, 3.5, true, nil},
		With:       map[string][]string{"sender": {"A", "B"}, "observer": {}},
		DeadlineMS: 1722945600000,
	}
	got := roundTripV2(t, MsgEnroll, 3, 0, enroll).(*Enroll)
	if !reflect.DeepEqual(got, enroll) {
		t.Fatalf("Enroll round trip: got %+v want %+v", got, enroll)
	}

	ack := roundTripV2(t, MsgOfferAck, 3, 0, OfferAck{Performance: 17, Role: "recipient[3]"}).(*OfferAck)
	if ack.Performance != 17 || ack.Role != "recipient[3]" {
		t.Fatalf("OfferAck round trip: %+v", ack)
	}

	send := roundTripV2(t, MsgSend, 3, 9, Send{To: "sender", Tag: "ack", Val: map[string]any{"k": []any{1, "x"}}}).(*Send)
	if send.To != "sender" || send.Tag != "ack" {
		t.Fatalf("Send round trip: %+v", send)
	}
	if m := send.Val.(map[string]any); m["k"].([]any)[0] != 1 {
		t.Fatalf("Send value mangled: %+v", send.Val)
	}

	sa := roundTripV2(t, MsgSendAll, 1, 2, SendAll{Tos: []string{"r[0]", "r[1]", "r[2]"}, Val: "payload"}).(*SendAll)
	if len(sa.Tos) != 3 || sa.Tos[2] != "r[2]" || sa.Val != "payload" {
		t.Fatalf("SendAll round trip: %+v", sa)
	}

	rv := roundTripV2(t, MsgRecv, 4, 5, Recv{From: "sender", Tag: "t"}).(*Recv)
	if rv.From != "sender" || rv.Tag != "t" {
		t.Fatalf("Recv round trip: %+v", rv)
	}

	sel := roundTripV2(t, MsgSelect, 2, 8, Select{Branches: []SelectBranch{
		{Send: true, Peer: "a", Tag: "x", Val: 9, Index: 0},
		{AnyPeer: true, Tag: "y", Index: 2},
	}}).(*Select)
	if len(sel.Branches) != 2 || !sel.Branches[0].Send || sel.Branches[0].Val != 9 ||
		!sel.Branches[1].AnyPeer || sel.Branches[1].Index != 2 {
		t.Fatalf("Select round trip: %+v", sel)
	}

	q := roundTripV2(t, MsgQuery, 6, 7, Query{Kind: QueryFamilySize, Name: "recipient"}).(*Query)
	if q.Kind != QueryFamilySize || q.Name != "recipient" {
		t.Fatalf("Query round trip: %+v", q)
	}

	bd := roundTripV2(t, MsgBodyDone, 6, 0, BodyDone{
		Results: []any{"r", 2},
		Err:     EncodeError(core.ErrRoleFinished),
	}).(*BodyDone)
	if len(bd.Results) != 2 || !errors.Is(bd.Err.Err(), core.ErrRoleFinished) {
		t.Fatalf("BodyDone round trip: %+v", bd)
	}

	op := roundTripV2(t, MsgOpResult, 6, 12, OpResult{
		Val: "v", Peer: "p[1]", Tag: "t", Index: 3, N: 64, Bool: true,
	}).(*OpResult)
	if op.Val != "v" || op.Peer != "p[1]" || op.Index != 3 || op.N != 64 || !op.Bool || op.Err != nil {
		t.Fatalf("OpResult round trip: %+v", op)
	}

	comp := roundTripV2(t, MsgComplete, 6, 0, Complete{
		Performance: 5, Role: "r", Values: []any{1.5},
		Err: EncodeError(&core.AbortError{Script: "s", Performance: 5, Reason: "boom"}),
	}).(*Complete)
	var ae *core.AbortError
	if comp.Performance != 5 || !errors.As(comp.Err.Err(), &ae) || ae.Reason != "boom" {
		t.Fatalf("Complete round trip: %+v", comp)
	}

	ab := roundTripV2(t, MsgAbort, 6, 0, Abort{Performance: 8, Culprit: "c[0]", Reason: "gone"}).(*Abort)
	if ab.Performance != 8 || ab.Culprit != "c[0]" || ab.Reason != "gone" {
		t.Fatalf("Abort round trip: %+v", ab)
	}

	if _, ok := roundTripV2(t, MsgHeartbeat, 0, 0, Heartbeat{}).(*Heartbeat); !ok {
		t.Fatalf("Heartbeat round trip lost type")
	}
	if _, ok := roundTripV2(t, MsgCancel, 9, 0, Cancel{}).(*Cancel); !ok {
		t.Fatalf("Cancel round trip lost type")
	}
	if _, ok := roundTripV2(t, MsgDrain, 1, 0, Drain{}).(*Drain); !ok {
		t.Fatalf("Drain round trip lost type")
	}
	pe := roundTripV2(t, MsgError, 0, 0, ProtoError{Msg: "bad"}).(*ProtoError)
	if pe.Msg != "bad" {
		t.Fatalf("ProtoError round trip: %+v", pe)
	}
}

// TestV2ValueCodec pins the value-type mapping: the codec preserves
// integer-ness (plain JSON would coerce every number to float64), []byte
// stays []byte, and unmodeled types survive via the JSON fallback, arriving
// as encoding/json decodes them.
func TestV2ValueCodec(t *testing.T) {
	cases := []struct {
		in, want any
	}{
		{nil, nil},
		{true, true},
		{false, false},
		{0, 0},
		{-1, -1},
		{math.MaxInt64, math.MaxInt64},
		{math.MinInt64, math.MinInt64},
		{int32(7), 7},
		{uint8(255), 255},
		{uint64(math.MaxUint64), uint64(math.MaxUint64)},
		{3.25, 3.25},
		{float32(1.5), 1.5},
		{math.Inf(-1), math.Inf(-1)},
		{"héllo", "héllo"},
		{"", ""},
		{[]byte{0, 1, 2}, []byte{0, 1, 2}},
		{[]any{1, "a", nil}, []any{1, "a", nil}},
		{map[string]any{"x": []any{true}}, map[string]any{"x": []any{true}}},
		// JSON fallback: a struct-ish type arrives as encoding/json decodes it.
		{struct {
			A int `json:"a"`
		}{5}, map[string]any{"a": 5.0}},
		{[]string{"p", "q"}, []any{"p", "q"}},
	}
	for _, tc := range cases {
		out := roundTripV2(t, MsgSend, 1, 1, Send{To: "r", Val: tc.in}).(*Send)
		if !reflect.DeepEqual(out.Val, tc.want) {
			t.Errorf("value %#v (%T) round-tripped to %#v (%T), want %#v (%T)",
				tc.in, tc.in, out.Val, out.Val, tc.want, tc.want)
		}
	}
}

func TestV2ErrorTaxonomyRoundTrip(t *testing.T) {
	sentinels := []error{
		core.ErrRoleAbsent, core.ErrRoleFinished, core.ErrUnknownRole,
		core.ErrClosed, core.ErrDraining, core.ErrNoBranches,
		context.Canceled, context.DeadlineExceeded,
	}
	for _, want := range sentinels {
		out := roundTripV2(t, MsgOpResult, 1, 1, OpResult{Err: EncodeError(fmt.Errorf("wrapped: %w", want))}).(*OpResult)
		if got := out.Err.Err(); !errors.Is(got, want) {
			t.Errorf("sentinel %v lost across v2 wire: got %v", want, got)
		}
	}

	oe := &core.OverloadError{Script: "s", Reason: "shed", RetryAfter: 250000000}
	out := roundTripV2(t, MsgComplete, 1, 0, Complete{Err: EncodeError(oe)}).(*Complete)
	var gotOE *core.OverloadError
	if !errors.As(out.Err.Err(), &gotOE) || gotOE.RetryAfter != oe.RetryAfter || gotOE.Reason != "shed" {
		t.Fatalf("OverloadError across v2 wire: %+v", out.Err)
	}

	// An unknown future code string survives via the escape hatch.
	raw, err := AppendPayload(nil, 2, MsgOpResult, 1, 1, OpResult{Err: &ErrInfo{Code: "brand_new", Msg: "m"}})
	if err != nil {
		t.Fatal(err)
	}
	_, _, m, err := ParsePayload(2, MsgOpResult, raw)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.(*OpResult).Err; got.Code != "brand_new" || got.Msg != "m" {
		t.Fatalf("unknown code mangled: %+v", got)
	}
}

// TestV2FrameConn exercises WriteFrame/ReadFrame over a real connection
// pair, including interleaved streams.
func TestV2FrameConn(t *testing.T) {
	ca, cb := pipeConns(t)
	go func() {
		_ = ca.WriteFrame(MsgSend, 1, 1, Send{To: "a", Val: 10})
		_ = ca.WriteFrame(MsgSend, 2, 1, Send{To: "b", Val: 20})
		_ = ca.WriteFrame(MsgBodyDone, 1, 0, BodyDone{Results: []any{"done"}})
	}()
	wantStreams := []uint64{1, 2, 1}
	for i := 0; i < 3; i++ {
		typ, stream, _, m, err := cb.ReadFrame()
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if stream != wantStreams[i] {
			t.Fatalf("frame %d stream = %d, want %d", i, stream, wantStreams[i])
		}
		switch i {
		case 0, 1:
			if typ != MsgSend {
				t.Fatalf("frame %d type = %s", i, typ)
			}
		case 2:
			if m.(*BodyDone).Results[0] != "done" {
				t.Fatalf("BodyDone mangled: %+v", m)
			}
		}
	}
}

// TestPayloadCodecVersion checks that the payload codec exists only for
// MaxVersion: asking for any other version fails instead of falling back.
func TestPayloadCodecVersion(t *testing.T) {
	good, err := AppendPayload(nil, MaxVersion, MsgSend, 1, 1, Send{To: "x"})
	if err != nil {
		t.Fatal(err)
	}
	for _, ver := range []int{0, 1, MaxVersion + 1} {
		if _, err := AppendPayload(nil, ver, MsgSend, 1, 1, Send{To: "x"}); err == nil {
			t.Errorf("AppendPayload(v%d) succeeded", ver)
		}
		if _, _, _, err := ParsePayload(ver, MsgSend, good); err == nil {
			t.Errorf("ParsePayload(v%d) succeeded", ver)
		}
	}
}

// TestHandshakeNegotiation checks that the host settles on v2 for every
// HELLO whose range includes it: this package's own client, and a client
// built while v1 was still spoken (floor 1, max 2).
func TestHandshakeNegotiation(t *testing.T) {
	cases := []struct {
		name  string
		hello Hello
	}{
		{"both v2", Hello{Magic: Magic, Version: MaxVersion}},
		{"old client", Hello{Magic: Magic, Version: 1, MaxVersion: MaxVersion}},
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
			if err := <-errCh; err != nil {
				t.Fatalf("ServerHandshakeVExt: %v", err)
			}
			var ack HelloAck
			if typ != MsgHelloAck || Decode(payload, &ack) != nil || ack.Version != MaxVersion {
				t.Fatalf("reply %s %+v, want HELLO-ACK at v%d", typ, ack, MaxVersion)
			}
		})
	}
}

// TestV2DecodeMalformed spot-checks the decoder's totality on hand-built
// corruptions; FuzzParsePayload explores the space exhaustively.
func TestV2DecodeMalformed(t *testing.T) {
	good, err := AppendPayload(nil, 2, MsgEnroll, 3, 0, &Enroll{
		PID: "p", Role: "r", Args: []any{"x", 1}, With: map[string][]string{"s": {"A"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation of a valid payload must error, not panic.
	for i := 0; i < len(good); i++ {
		if _, _, _, err := ParsePayload(2, MsgEnroll, good[:i]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", i)
		}
	}
	// Trailing garbage is rejected too.
	if _, _, _, err := ParsePayload(2, MsgEnroll, append(append([]byte{}, good...), 0xFF)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// A length claim far beyond the payload must not allocate or succeed.
	huge := []byte{0x01, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}
	if _, _, _, err := ParsePayload(2, MsgEnroll, huge); err == nil {
		t.Fatal("oversized length claim accepted")
	}
	// Deep value nesting is cut off, not recursed to death.
	payload := []byte{0x01, 0x01}        // stream, seq
	payload = append(payload, 0x01, 'r') // To = "r"
	payload = append(payload, 0x00)      // Tag = ""
	for i := 0; i < 100; i++ {
		payload = append(payload, vList, 0x01) // list of 1 containing...
	}
	payload = append(payload, vNil)
	if _, _, _, err := ParsePayload(2, MsgSend, payload); !errors.Is(err, errTooDeep) {
		t.Fatalf("deep nesting: got %v, want errTooDeep", err)
	}
}

func FuzzParsePayload(f *testing.F) {
	// Seed with one valid encoding per message type, plus corruptions the
	// unit tests found interesting.
	seedMsgs := []struct {
		t MsgType
		m any
	}{
		{MsgEnroll, &Enroll{PID: "p", Role: "r[0]", Args: []any{1, "s", 2.5, nil, true}, With: map[string][]string{"a": {"X"}}, DeadlineMS: 99}},
		{MsgOfferAck, OfferAck{Performance: 3, Role: "r"}},
		{MsgSend, Send{To: "peer", Tag: "t", Val: map[string]any{"k": []any{1, "v"}}}},
		{MsgSendAll, SendAll{Tos: []string{"a", "b"}, Val: []byte{1, 2}}},
		{MsgRecv, Recv{From: "p", Tag: "g"}},
		{MsgRecvAny, Recv{}},
		{MsgSelect, Select{Branches: []SelectBranch{{Send: true, Peer: "p", Val: 1, Index: 0}, {AnyPeer: true, Index: 1}}}},
		{MsgQuery, Query{Kind: QueryTerminated, Role: "r"}},
		{MsgBodyDone, BodyDone{Results: []any{"x"}, Err: EncodeError(core.ErrClosed)}},
		{MsgOpResult, OpResult{Val: 7, Peer: "p", Index: 2, N: 3, Bool: true, Err: EncodeError(context.Canceled)}},
		{MsgComplete, Complete{Performance: 1, Role: "r", Values: []any{1}, Err: EncodeError(&core.AbortError{Reason: "x"})}},
		{MsgAbort, Abort{Performance: 2, Culprit: "c", Reason: "r"}},
		{MsgDrain, Drain{}},
		{MsgHeartbeat, Heartbeat{}},
		{MsgCancel, Cancel{}},
		{MsgResume, Resume{Token: "74a1b2c3d4e5f607", RecvCount: 42}},
		{MsgResumeAck, ResumeAck{RecvCount: 17}},
		{MsgAck, Ack{Count: 128}},
		{MsgBye, Bye{}},
		{MsgError, ProtoError{Msg: "m"}},
	}
	for _, s := range seedMsgs {
		payload, err := AppendPayload(nil, 2, s.t, 5, 9, s.m)
		if err != nil {
			f.Fatalf("seed %s: %v", s.t, err)
		}
		f.Add(uint8(s.t), payload)
	}
	f.Add(uint8(MsgSend), []byte{})
	f.Add(uint8(MsgSend), []byte{0x01, 0x01, 0x01, 'r', 0x00, vList, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Add(uint8(99), []byte{0x00, 0x00})

	f.Fuzz(func(t *testing.T, typ uint8, payload []byte) {
		// Decoding arbitrary bytes must never panic and must bound its
		// allocations by the payload size; errors are the expected outcome.
		stream, seq, m, err := ParsePayload(2, MsgType(typ), payload)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode: the codec is closed over its own
		// output (re-encoding may differ byte-wise — map order — but must
		// not fail).
		if _, rerr := AppendPayload(nil, 2, MsgType(typ), stream, seq, m); rerr != nil {
			t.Fatalf("decoded %s does not re-encode: %v", MsgType(typ), rerr)
		}
	})
}
