package ompss

// Auto is the "let the runtime decide" sentinel of a Tuning field
// (Tuning{Grain: Auto, ...}): the knob takes its static default. It is an
// untyped constant so it converts to Setting.
const Auto = -1

// Setting is one knob of a Tuning profile. The zero value means "unset —
// the runtime default", Auto asks for the static default, and On / Off pin
// a boolean knob.
type Setting int

const (
	// Off pins a boolean knob false.
	Off Setting = 1
	// On pins a boolean knob true.
	On Setting = 2
)

// isSet reports whether the knob was set at all (Auto, On or Off).
func (s Setting) isSet() bool { return s != 0 }

// boolOr resolves a boolean knob: true for On, false for Off, def when
// unset or Auto.
func (s Setting) boolOr(def bool) bool {
	switch s {
	case On:
		return true
	case Off:
		return false
	}
	return def
}

// Tuning is the runtime's knob profile — the one surface for the
// scheduling and renaming knobs, given to New (or RunSim) via WithTuning.
// Unset (zero) fields take the built-in default; Auto in a field resolves
// to the field's static default. The profile is fixed for the runtime's
// lifetime: NewSession ignores WithTuning.
type Tuning struct {
	// Grain is ignored: a program sizes its own loop chunks. Leave it
	// unset or Auto. It stays only while benchmark/serve.go names it
	// (ROADMAP 22(a)).
	Grain Setting
	// StealBackoff is ignored: the polling idle throttle's sleep cap is a
	// constant. Leave it unset or Auto. It stays only while
	// benchmark/serve.go names it (ROADMAP 22(a)).
	StealBackoff Setting
	// Renaming toggles dependence renaming (data versioning), the
	// StarSs/OmpSs mechanism that eliminates WAR/WAW stalls: a writer on
	// a renameable datum (Datum.EnableRenaming) whose only obstacles are
	// earlier readers — or, for output-only writes, an unfinished earlier
	// writer — gets a fresh private instance instead of waiting; the
	// readers keep the old instance, and the latest instance is copied
	// back onto the canonical storage when everything in flight has
	// drained. Live renamed instances per datum are capped at
	// core.DefaultMaxVersions; a write beyond the cap stalls on its WAR/WAW
	// edges instead. On / Off; unset means off. Both backends share
	// the single decision path in the dependence tracker, so native and
	// simulated runs stay value-identical either way.
	//
	// Failure propagation follows the edges that remain: a renamed writer
	// does not consume the earlier tasks' output, so it runs (and
	// publishes) rather than being skipped when a program-order
	// predecessor it never depended on fails. A renamed InOut keeps its
	// true RAW edge and still inherits the previous writer's failure.
	Renaming Setting
	// Locality toggles locality-aware scheduling: successors released by
	// a finishing task are placed at the head of the finishing worker's
	// queue so producer→consumer chains run back-to-back on one core (the
	// paper's ray-rot analysis credits this policy). On / Off; unset means
	// on.
	Locality Setting
}

// merge overlays src's set knobs onto dst (unset src fields inherit).
// Grain and StealBackoff are ignored, so they are not carried.
func (dst *Tuning) merge(src Tuning) {
	if src.Renaming.isSet() {
		dst.Renaming = src.Renaming
	}
	if src.Locality.isSet() {
		dst.Locality = src.Locality
	}
}

// WithTuning applies a Tuning profile: set fields override the current
// configuration, unset fields inherit. A runtime option (New, RunSim); a
// later WithTuning overrides field by field in order. NewSession ignores
// it.
func WithTuning(t Tuning) Option {
	return func(c *config) { c.tun.merge(t) }
}

// Resolved accessors: the single place profile fields become engine
// configuration, including the pre-profile defaults for unset knobs.

// localityOn resolves the locality knob (default on).
func (c config) localityOn() bool { return c.tun.Locality.boolOr(true) }

// renamingOn resolves the renaming toggle (default off).
func (c config) renamingOn() bool { return c.tun.Renaming.boolOr(false) }
