package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/controlplane"
)

// TestOpenCampaignRefusals: the coordinator role adopts a -checkpoint file
// only when it holds exactly the campaign the flags describe. A journal
// written for a different spec, one holding several campaigns, and files
// in the retired v3 checkpoint and v4 journal formats are each refused
// with an error naming the file — a checkpoint never silently feeds a
// different campaign.
func TestOpenCampaignRefusals(t *testing.T) {
	spec := campaign.Spec{Net: "ConvNet", DType: "FLOAT16", N: 40, Inputs: 1, Seed: 7, Shards: 4}
	reseeded := spec
	reseeded.Seed = 8

	// seed writes the journal a previous coordinator run of spec left.
	seed := func(t *testing.T, path string) {
		p, id, err := openCampaign(controlplane.Config{JournalPath: path}, spec)
		if err != nil {
			t.Fatal(err)
		}
		p.Close()
		// The same flags adopt it again under the same ID.
		p, again, err := openCampaign(controlplane.Config{JournalPath: path}, spec)
		if err != nil || again != id {
			t.Fatalf("same spec not resumed: id %q then %q, err %v", id, again, err)
		}
		p.Close()
	}
	cases := []struct {
		name    string
		prepare func(t *testing.T, path string)
		want    string
	}{
		{"different seed", seed, "different campaign spec"},
		{"two campaigns", func(t *testing.T, path string) {
			p, err := controlplane.New(controlplane.Config{JournalPath: path})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []campaign.Spec{spec, reseeded} {
				if _, err := p.Submit("", s, 1, 0); err != nil {
					t.Fatal(err)
				}
			}
			p.Close()
		}, "holds 2 campaigns"},
		{"v3 checkpoint", func(t *testing.T, path string) {
			v3 := `{"version":3,"spec":{"net":"ConvNet","dtype":"FLOAT16","n":40},"shards":4}` + "\n"
			if err := os.WriteFile(path, []byte(v3), 0o644); err != nil {
				t.Fatal(err)
			}
		}, "version 3"},
		{"v4 journal", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte(`{"version":4}`+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}, "version 4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "campaign.ckpt")
			tc.prepare(t, path)
			p, _, err := openCampaign(controlplane.Config{JournalPath: path}, reseeded)
			if err == nil {
				p.Close()
				t.Fatal("checkpoint adopted")
			}
			if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("refusal %q should name %s and say %q", err, path, tc.want)
			}
		})
	}
}

// TestCrashLeaseAuthenticates: the lease a -crash-after worker takes and
// drops carries the fleet token, so an authenticated plane grants it, and
// it expires back into the queue once its TTL passes.
func TestCrashLeaseAuthenticates(t *testing.T) {
	auth, err := controlplane.NewAuthenticator(map[string]string{"alice": "ka", controlplane.FleetTenant: "kf"})
	if err != nil {
		t.Fatal(err)
	}
	const ttl = time.Minute
	p, err := controlplane.New(controlplane.Config{LeaseTTL: ttl, Auth: auth})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	st, err := p.Submit("alice", campaign.Spec{Net: "ConvNet", DType: "FLOAT16", N: 8, Inputs: 1, Seed: 1, Shards: 1}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	token, err := auth.Token(controlplane.FleetTenant)
	if err != nil {
		t.Fatal(err)
	}

	if err := crashLease(srv.URL, "alice.00"); err == nil {
		t.Fatal("a forged token was granted a lease")
	}
	if err := crashLease(srv.URL, token); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.Get("alice", st.ID); got.InFlight != 1 {
		t.Fatalf("in flight after the crash lease: %d, want 1", got.InFlight)
	}
	if ls := p.LeaseBatch(time.Now(), 1).Leases; len(ls) != 0 {
		t.Fatalf("slot %d leased twice before the crash lease expired", ls[0].Slot)
	}
	if ls := p.LeaseBatch(time.Now().Add(2*ttl), 1).Leases; len(ls) != 1 || ls[0].Slot != 0 {
		t.Fatalf("the expired crash lease's slot was not leased again: %+v", ls)
	}
}
