package controlplane

import (
	"bufio"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strings"
)

// tokenContext domain-separates the tenant MAC from any other use of the
// same key material.
const tokenContext = "faultserve.tenant.v1:"

// FleetTenant is the reserved principal name for the shared worker fleet.
// Its token is the only one the fleet routes (/v1/lease, /v1/heartbeat,
// /v1/reports) accept, and the only one the tenant routes refuse: a
// tenant's token cannot pull other tenants' shard leases or inject
// fabricated reports, and a leaked worker token cannot submit, cancel or
// read campaigns. Configure it like any other key-file line
// ("fleet:secret") and mint its token with -role token -tenant fleet.
const FleetTenant = "fleet"

// Authenticator verifies per-tenant HMAC bearer tokens. A token is
// "tenant.hex(HMAC-SHA256(key_tenant, context||tenant))": self-describing
// (the tenant name rides in the clear), deterministic (mintable offline by
// anyone holding the keys file), and verified with a constant-time
// compare. A nil *Authenticator means authentication is disabled —
// loopback dev mode, where every request acts as the "local" tenant.
type Authenticator struct {
	keys map[string][]byte
}

// NewAuthenticator builds an authenticator from tenant → secret pairs.
// Empty tenants or secrets are rejected.
func NewAuthenticator(keys map[string]string) (*Authenticator, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("controlplane: no tenant keys")
	}
	a := &Authenticator{keys: make(map[string][]byte, len(keys))}
	for tenant, secret := range keys {
		if tenant == "" || secret == "" {
			return nil, fmt.Errorf("controlplane: empty tenant name or secret")
		}
		if strings.ContainsAny(tenant, ".: \t\n") {
			return nil, fmt.Errorf("controlplane: tenant %q may not contain '.', ':' or whitespace", tenant)
		}
		a.keys[tenant] = []byte(secret)
	}
	return a, nil
}

// LoadKeyFile reads a tenant key file: one "tenant:secret" per line, blank
// lines and #-comments ignored.
func LoadKeyFile(path string) (*Authenticator, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("controlplane: tenant keys: %v", err)
	}
	defer f.Close()
	keys := make(map[string]string)
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		tenant, secret, ok := strings.Cut(line, ":")
		if !ok || tenant == "" || secret == "" {
			return nil, fmt.Errorf("controlplane: tenant keys %s:%d: want tenant:secret", path, lineNo)
		}
		if _, dup := keys[tenant]; dup {
			return nil, fmt.Errorf("controlplane: tenant keys %s:%d: duplicate tenant %q", path, lineNo, tenant)
		}
		keys[tenant] = secret
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("controlplane: tenant keys: %v", err)
	}
	return NewAuthenticator(keys)
}

// mac computes the tenant's token MAC with the given key.
func tokenMAC(key []byte, tenant string) []byte {
	h := hmac.New(sha256.New, key)
	h.Write([]byte(tokenContext + tenant))
	return h.Sum(nil)
}

// Token mints the bearer token for a tenant.
func (a *Authenticator) Token(tenant string) (string, error) {
	key, ok := a.keys[tenant]
	if !ok {
		return "", fmt.Errorf("controlplane: unknown tenant %q", tenant)
	}
	return tenant + "." + hex.EncodeToString(tokenMAC(key, tenant)), nil
}

// dummyKey keeps Verify doing one HMAC computation whether or not the
// claimed tenant exists, so response timing does not enumerate tenants.
var dummyKey = []byte("faultserve.dummy.verification.key")

// Verify checks a bearer token and returns the authenticated tenant. The
// MAC comparison is constant-time (hmac.Equal), and unknown tenants still
// pay for a full MAC computation.
func (a *Authenticator) Verify(token string) (tenant string, ok bool) {
	i := strings.LastIndexByte(token, '.')
	if i <= 0 || i == len(token)-1 {
		return "", false
	}
	claimed, macHex := token[:i], token[i+1:]
	got, err := hex.DecodeString(macHex)
	if err != nil {
		return "", false
	}
	key, known := a.keys[claimed]
	if !known {
		key = dummyKey
	}
	want := tokenMAC(key, claimed)
	if !known || !hmac.Equal(got, want) {
		// Burn the compare on the dummy path too before refusing.
		return "", false
	}
	return claimed, true
}

// Has reports whether a key is configured for the named principal.
func (a *Authenticator) Has(tenant string) bool {
	_, ok := a.keys[tenant]
	return ok
}

// Tenants lists the configured tenant names, sorted.
func (a *Authenticator) Tenants() []string {
	out := make([]string, 0, len(a.keys))
	for t := range a.keys {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}
