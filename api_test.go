package khazana

import (
	"context"
	"testing"
	"time"
)

func TestPublicHelpers(t *testing.T) {
	if OpenACL().Check("anyone", PermAll) != nil {
		t.Error("OpenACL should grant everything")
	}
	if PrivateACL("a").Check("b", PermRead) == nil {
		t.Error("PrivateACL should deny strangers")
	}
	if DefaultPageSize != 4096 {
		t.Errorf("DefaultPageSize = %d", DefaultPageSize)
	}
	if _, err := ParseAddr("not an addr"); err == nil {
		t.Error("ParseAddr should reject garbage")
	}
	if ClientID(1) == ClientID(2) {
		t.Error("ClientID must be distinct per index")
	}
}

func TestClusterOptionSurface(t *testing.T) {
	c, err := NewCluster(2,
		WithStoreDir(t.TempDir()),
		WithMemPages(64),
		WithDiskPages(256),
		WithLatency(0),
		WithAutoMigration(time.Hour), // enabled but never fires in-test
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Len() != 2 || len(c.Nodes()) != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	ctx := context.Background()
	start, err := c.Node(1).Reserve(ctx, 4096, Attrs{}, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Node(1).Allocate(ctx, start, ""); err != nil {
		t.Fatal(err)
	}
	// Partition/Heal helpers. Descriptor announces may have made node 2
	// a ring owner that can answer the lookup from its own partition
	// table; drop that copy so the lookup must cross the (cut) link.
	c.Partition(1, 2)
	c.Node(2).Core().RingTable().Remove(start)
	shortCtx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	if _, err := c.Node(2).GetAttr(shortCtx, start); err == nil {
		t.Fatal("partitioned GetAttr should fail")
	}
	cancel()
	c.Heal(1, 2)
	if _, err := c.Node(2).GetAttr(ctx, start); err != nil {
		t.Fatal(err)
	}
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(0); err == nil {
		t.Fatal("zero-node cluster should fail")
	}
}

func TestStartNodeValidation(t *testing.T) {
	if _, err := StartNode(context.Background(), NodeConfig{ID: 1}); err == nil {
		t.Fatal("node without transport or listen addr should fail")
	}
}

func TestPublicMigrateRegion(t *testing.T) {
	c := newTestCluster(t, 2)
	ctx := context.Background()
	start, err := c.Node(1).Reserve(ctx, 4096, Attrs{}, "op")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Node(1).Allocate(ctx, start, "op"); err != nil {
		t.Fatal(err)
	}
	lk, err := c.Node(1).Lock(ctx, Range{Start: start, Size: 4096}, LockWrite, "op")
	if err != nil {
		t.Fatal(err)
	}
	_ = lk.Write(start, []byte("moving"))
	_ = lk.Unlock(ctx)

	if err := c.Node(2).MigrateRegion(ctx, start, 2, "op"); err != nil {
		t.Fatal(err)
	}
	d, err := c.Node(2).GetAttr(ctx, start)
	if err != nil {
		t.Fatal(err)
	}
	if home, _ := d.PrimaryHome(); home != 2 {
		t.Fatalf("home after public migrate = %v", home)
	}
}

func TestClientStatsAndMigrateInproc(t *testing.T) {
	c := newTestCluster(t, 2)
	ctx := context.Background()
	tr, err := c.Network.Attach(ClientID(3))
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(tr, 1, "op")
	start, err := cli.Reserve(ctx, 4096, Attrs{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Allocate(ctx, start); err != nil {
		t.Fatal(err)
	}
	st, err := cli.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Node != 1 || st.HomedRegions == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if err := cli.Migrate(ctx, start, 2); err != nil {
		t.Fatal(err)
	}
	d, err := cli.GetAttr(ctx, start)
	if err != nil {
		t.Fatal(err)
	}
	if home, _ := d.PrimaryHome(); home != 2 {
		t.Fatalf("home after client migrate = %v", home)
	}
}

// TestGetAttrReturnsPrivateCopy: the daemon shares its published
// descriptors between readers, so the public GetAttr must hand client code
// a copy — scribbling on the result changes nothing anyone else sees.
func TestGetAttrReturnsPrivateCopy(t *testing.T) {
	c, err := NewCluster(1, WithStoreDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	n := c.Node(1)
	attrs := Attrs{ACL: PrivateACL("alice").Grant("bob", PermRead)}
	start, err := n.Reserve(ctx, 4096, attrs, "alice")
	if err != nil {
		t.Fatal(err)
	}
	d, err := n.GetAttr(ctx, start)
	if err != nil {
		t.Fatal(err)
	}
	d.Home[0] = 99
	d.Epoch = 99
	d.Allocated = true
	d.Attrs.ACL.Entries[0].Allow = PermAll
	again, err := n.GetAttr(ctx, start)
	if err != nil {
		t.Fatal(err)
	}
	if again.Home[0] != 1 || again.Epoch == 99 || again.Allocated || again.Attrs.ACL.Entries[0].Allow != PermRead {
		t.Fatalf("mutating a GetAttr result reached the daemon's descriptor: %+v", again)
	}
}
