package laser

import "testing"

func TestConfigFingerprint(t *testing.T) {
	a, b := DefaultConfig(), DefaultConfig()
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("equal configs fingerprint differently")
	}
	b.PEBS.Seed = 99
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("PEBS seed change not reflected in fingerprint")
	}
	c := DefaultConfig()
	c.PollInterval = 600_000
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("poll-interval change not reflected in fingerprint")
	}
}
