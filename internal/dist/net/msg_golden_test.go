package distnet

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
)

// The control messages' wire bytes, pinned for one instance of each. The
// rendezvous and tree-hello frames cross process boundaries, so a member
// built from another commit at the same protocol version must read them;
// these bytes may move only with ProtocolVersion.
var (
	goldenJoin = joinMsg{Gen: 3, MemberID: 0x01020304, NLocal: 2, WorldSize: 4,
		ConfigDigest: 0x1122334455667788, DataPort: 40001}
	goldenJoinAck  = joinAckMsg{MemberID: 7, Gen: 2}
	goldenReject   = rejectMsg{Code: rejectConfig, Reason: "digest"}
	goldenStart    = startMsg{Gen: 5, WorldSize: 6, BaseRank: 2, ChunkElems: 4096, TreeParent: "10.0.0.1:9", TreeChildren: []uint32{3, 9}, TreeDepth: 1}
	goldenPeerDead = peerDeadMsg{Gen: 4, DeadMember: 11, Reason: "eof"}
	goldenHello    = treeHelloMsg{Gen: 8, MemberID: 0xA0B0C0D0}
)

const (
	wireJoin     = "03000000" + "04030201" + "02000000" + "04000000" + "8877665544332211" + "00" + "419c0000"
	wireJoinAck  = "07000000" + "02000000"
	wireReject   = "0300" + "06000000" + "646967657374"
	wireStart    = "05000000" + "06000000" + "02000000" + "00100000" + "0a000000" + "31302e302e302e313a39" + "02000000" + "03000000" + "09000000" + "01000000"
	wirePeerDead = "04000000" + "0b000000" + "03000000" + "656f66"
	wireHello    = "08000000" + "d0c0b0a0"
	// The coordinator's own loopback join: Self set.
	wireSelfJoin = "01000000" + "00000000" + "01000000" + "00000000" + "0000000000000000" + "01" + "00000000"
)

func TestControlWireGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		got  []byte
		want string
	}{
		{"join", encode(&goldenJoin), wireJoin},
		{"join-ack", encode(&goldenJoinAck), wireJoinAck},
		{"reject", encode(&goldenReject), wireReject},
		{"start", encode(&goldenStart), wireStart},
		{"peer-dead", encode(&goldenPeerDead), wirePeerDead},
		{"tree-hello", encode(&goldenHello), wireHello},
	} {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%s encodes to %s, want %s", c.name, got, c.want)
		}
	}

	wire := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	same := func(name string, got, want any, err error) {
		t.Helper()
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s decodes to %+v (%v), want %+v", name, got, err, want)
		}
	}
	join, err := decode[joinMsg](wire(wireJoin))
	same("join", join, goldenJoin, err)
	ack, err := decode[joinAckMsg](wire(wireJoinAck))
	same("join-ack", ack, goldenJoinAck, err)
	rj, err := decode[rejectMsg](wire(wireReject))
	same("reject", rj, goldenReject, err)
	sm, err := decode[startMsg](wire(wireStart))
	same("start", sm, goldenStart, err)
	pd, err := decode[peerDeadMsg](wire(wirePeerDead))
	same("peer-dead", pd, goldenPeerDead, err)
	hm, err := decode[treeHelloMsg](wire(wireHello))
	same("tree-hello", hm, goldenHello, err)

	self, err := decode[joinMsg](wire(wireSelfJoin))
	if err != nil || self.Gen != 1 || self.NLocal != 1 {
		t.Fatalf("self join decodes to %+v (%v)", self, err)
	}
	if got := encode(&self); !bytes.Equal(got, wire(wireSelfJoin)) {
		t.Errorf("self join re-encodes to %x, want %s", got, wireSelfJoin)
	}
}
