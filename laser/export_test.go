package laser

import "repro/internal/workload"

// AttachSerial is Attach without the image's declared private data, so
// the session runs the serial reference interpreter; RestoreSerial is
// the matching RestoreSession. Both exist only for the external snapshot
// tests.
func AttachSerial(img *workload.Image, opts ...Option) (*Session, error) {
	st, err := resolveSettings(opts)
	if err != nil {
		return nil, err
	}
	return newSession(img, st, nil)
}

func RestoreSerial(img *workload.Image, st *SessionState, opts ...Option) (*Session, error) {
	set, err := resolveSettings(opts)
	if err != nil {
		return nil, err
	}
	return restoreSession(img, st, set, nil)
}
