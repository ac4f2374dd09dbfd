package kvcache

import (
	"math/rand"
	"testing"
)

func newManager(t *testing.T, policy Policy, capPages int) *Manager {
	t.Helper()
	m, err := New(Config{
		Policy:        policy,
		PageTokens:    16,
		BytesPerToken: 1024,
		CapacityBytes: int64(capPages) * 16 * 1024,
		MaxSeqLen:     2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPolicyString(t *testing.T) {
	if Paged.String() != "vllm" || MaxLen.String() != "maxlen" {
		t.Fatal("policy strings")
	}
}

func TestConfigValidation(t *testing.T) {
	good := Config{PageTokens: 16, BytesPerToken: 1, CapacityBytes: 1 << 20, MaxSeqLen: 100}
	if good.Validate() != nil {
		t.Fatal("good config rejected")
	}
	for i, mut := range []func(*Config){
		func(c *Config) { c.PageTokens = 0 },
		func(c *Config) { c.BytesPerToken = 0 },
		func(c *Config) { c.CapacityBytes = 0 },
		func(c *Config) { c.MaxSeqLen = 0 },
	} {
		c := good
		mut(&c)
		if c.Validate() == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
	if _, err := New(Config{PageTokens: 1 << 20, BytesPerToken: 1 << 20, CapacityBytes: 1, MaxSeqLen: 10}); err == nil {
		t.Fatal("capacity below one page must fail")
	}
}

func TestAdmitExtendRelease(t *testing.T) {
	m := newManager(t, Paged, 100)
	if !m.CanAdmit(100) {
		t.Fatal("must fit")
	}
	if err := m.Admit(1, 100); err != nil { // 7 pages
		t.Fatal(err)
	}
	if m.FreePages() != 93 {
		t.Fatalf("free = %d", m.FreePages())
	}
	if m.Tokens(1) != 100 || !m.Resident(1) {
		t.Fatal("state wrong")
	}
	// Page rounding: tokens 100 of 112 allocated -> 12 fragment tokens.
	if st := m.Stats(); st.InternalFragTokens != 12 {
		t.Fatalf("frag = %d", st.InternalFragTokens)
	}
	// Extending within the page allocates nothing.
	if n, err := m.Extend(1, 12); err != nil || n != 0 {
		t.Fatalf("extend within page: %d, %v", n, err)
	}
	// Crossing the boundary allocates one page.
	if n, err := m.Extend(1, 1); err != nil || n != 1 {
		t.Fatalf("extend across page: %d, %v", n, err)
	}
	if err := m.Release(1); err != nil {
		t.Fatal(err)
	}
	if m.FreePages() != 100 {
		t.Fatal("release must return pages")
	}
	if err := m.Invariant(); err != nil {
		t.Fatal(err)
	}
}

func TestAdmitErrors(t *testing.T) {
	m := newManager(t, Paged, 10)
	if err := m.Admit(1, 0); err == nil {
		t.Fatal("zero tokens must fail")
	}
	if err := m.Admit(1, 5000); err == nil {
		t.Fatal("over max length must fail")
	}
	if err := m.Admit(1, 16); err != nil {
		t.Fatal(err)
	}
	if err := m.Admit(1, 16); err == nil {
		t.Fatal("double admit must fail")
	}
	if err := m.Admit(2, 10*16); err == nil {
		t.Fatal("oversubscription must fail")
	}
}

func TestExtendErrors(t *testing.T) {
	m := newManager(t, Paged, 4)
	if _, err := m.Extend(9, 1); err == nil {
		t.Fatal("unknown seq must fail")
	}
	if err := m.Admit(1, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Extend(1, 0); err == nil {
		t.Fatal("zero growth must fail")
	}
	if _, err := m.Extend(1, 5000); err == nil {
		t.Fatal("over max length must fail")
	}
	// Fill the device, then extension must fail.
	if err := m.Admit(2, 3*16); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Extend(1, 16); err == nil {
		t.Fatal("exhausted memory must fail extend")
	}
}

func TestEvictReload(t *testing.T) {
	m := newManager(t, Paged, 6)
	if err := m.Admit(1, 32); err != nil { // 2 pages
		t.Fatal(err)
	}
	if err := m.Admit(2, 32); err != nil {
		t.Fatal(err)
	}
	// Eviction picks the most recently admitted (request 2).
	id, bytes, ok := m.EvictLast()
	if !ok || id != 2 || bytes != 2*16*1024 {
		t.Fatalf("evict: id=%d bytes=%d ok=%v", id, bytes, ok)
	}
	if m.Resident(2) || m.FreePages() != 4 {
		t.Fatal("eviction accounting")
	}
	if got := m.Evicted(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("evicted list %v", got)
	}
	if _, err := m.Extend(2, 1); err == nil {
		t.Fatal("extending an evicted sequence must fail")
	}
	if !m.CanReload(2) {
		t.Fatal("reload must fit")
	}
	if bytes, err := m.Reload(2); err != nil || bytes != 2*16*1024 {
		t.Fatalf("reload: %d, %v", bytes, err)
	}
	if !m.Resident(2) {
		t.Fatal("reload must restore residency")
	}
	st := m.Stats()
	if st.Evictions != 1 || st.Reloads != 1 {
		t.Fatalf("stats %+v", st)
	}
	if err := m.Invariant(); err != nil {
		t.Fatal(err)
	}
}

func TestReloadErrors(t *testing.T) {
	m := newManager(t, Paged, 4)
	if _, err := m.Reload(9); err == nil {
		t.Fatal("unknown reload must fail")
	}
	if err := m.Admit(1, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Reload(1); err == nil {
		t.Fatal("reloading a resident seq must fail")
	}
}

func TestEvictLastEmpty(t *testing.T) {
	m := newManager(t, Paged, 4)
	if _, _, ok := m.EvictLast(); ok {
		t.Fatal("nothing to evict")
	}
}

func TestReleaseEvicted(t *testing.T) {
	m := newManager(t, Paged, 4)
	if err := m.Admit(1, 16); err != nil {
		t.Fatal(err)
	}
	m.EvictLast()
	if err := m.Release(1); err != nil {
		t.Fatal(err)
	}
	if m.FreePages() != 4 {
		t.Fatal("releasing an evicted seq must not return pages twice")
	}
	if err := m.Release(1); err == nil {
		t.Fatal("double release must fail")
	}
	if err := m.Invariant(); err != nil {
		t.Fatal(err)
	}
}

// TestMaxLenPolicy: the conventional allocator reserves the max sequence
// length regardless of the actual prompt, so far fewer requests fit — the
// inefficiency vLLM paging removes.
func TestMaxLenPolicy(t *testing.T) {
	paged := newManager(t, Paged, 256)
	maxlen := newManager(t, MaxLen, 256)
	admitted := func(m *Manager) int {
		n := 0
		for i := 0; ; i++ {
			if !m.CanAdmit(32) || m.Admit(i, 32) != nil {
				break
			}
			n++
		}
		return n
	}
	p, x := admitted(paged), admitted(maxlen)
	if p <= x {
		t.Fatalf("paged fits %d, maxlen %d: paging must admit more", p, x)
	}
	// MaxLen: 2048/16 = 128 pages per seq -> 2 seqs in 256 pages.
	if x != 2 {
		t.Fatalf("maxlen admitted %d, want 2", x)
	}
}

// TestRandomOpsInvariant drives the manager through random operation
// sequences and checks the page-accounting invariant throughout.
func TestRandomOpsInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	m := newManager(t, Paged, 64)
	live := map[int]bool{}
	next := 0
	for step := 0; step < 5000; step++ {
		switch rng.Intn(5) {
		case 0: // admit
			tokens := 1 + rng.Intn(200)
			if m.CanAdmit(tokens) {
				if err := m.Admit(next, tokens); err != nil {
					t.Fatalf("step %d admit: %v", step, err)
				}
				live[next] = true
				next++
			}
		case 1: // extend a random live resident seq
			for id := range live {
				if m.Resident(id) && m.Tokens(id) < 2000 {
					m.Extend(id, 1+rng.Intn(20)) // may fail when full; fine
				}
				break
			}
		case 2: // evict
			m.EvictLast()
		case 3: // reload
			for _, id := range m.Evicted() {
				if m.CanReload(id) {
					if _, err := m.Reload(id); err != nil {
						t.Fatalf("step %d reload: %v", step, err)
					}
				}
				break
			}
		case 4: // release
			for id := range live {
				if err := m.Release(id); err != nil {
					t.Fatalf("step %d release: %v", step, err)
				}
				delete(live, id)
				break
			}
		}
		if err := m.Invariant(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

func TestSeqBytes(t *testing.T) {
	m := newManager(t, Paged, 10)
	if err := m.Admit(1, 20); err != nil { // 2 pages
		t.Fatal(err)
	}
	if m.SeqBytes(1) != 2*16*1024 {
		t.Fatalf("seq bytes %d", m.SeqBytes(1))
	}
	if m.SeqBytes(42) != 0 {
		t.Fatal("unknown seq bytes")
	}
	if m.PageBytes() != 16*1024 || m.TotalPages() != 10 {
		t.Fatal("descriptors")
	}
}
