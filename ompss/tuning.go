package ompss

// Auto is the "let the runtime decide" sentinel, usable in two places:
//
//   - as the chunk argument of TaskLoop (rt.TaskLoop(n, ompss.Auto, ...)):
//     the chunk size is the pinned Tuning Grain, or a workers-derived
//     heuristic otherwise. Only exactly Auto means runtime-chosen; any other
//     non-positive chunk keeps the historical clamp-to-1 behavior.
//   - as a Tuning profile field (Tuning{Grain: Auto, ...}): the knob takes
//     its static default.
//
// It is an untyped constant so it converts to both int and Setting.
const Auto = -1

// Setting is one knob of a Tuning profile. The zero value means "unset —
// the runtime default", Auto asks for the static default, and Fixed(v)
// pins it. For boolean knobs use On / Off (aliases of Fixed(1) / Fixed(0)).
type Setting int

const (
	// Off pins a boolean knob false (= Fixed(0)).
	Off Setting = 1
	// On pins a boolean knob true (= Fixed(1)).
	On Setting = 2
)

// Fixed pins a knob to a static value v (v ≥ 0). Values are stored shifted
// by one so that Fixed(0) is distinguishable from the unset zero Setting.
func Fixed(v int) Setting {
	if v < 0 {
		v = 0
	}
	return Setting(v + 1)
}

// isSet reports whether the knob was set at all (Auto or Fixed).
func (s Setting) isSet() bool { return s != 0 }

// value returns the pinned value and true for a Fixed setting; (0, false)
// for unset or Auto.
func (s Setting) value() (int, bool) {
	if s <= 0 {
		return 0, false
	}
	return int(s) - 1, true
}

// boolOr resolves a boolean knob: the pinned truth value when set (any
// Fixed value > 0 counts as on), def when unset or Auto.
func (s Setting) boolOr(def bool) bool {
	if v, ok := s.value(); ok {
		return v != 0
	}
	return def
}

// Tuning is the runtime's knob profile — the one surface for the
// scheduling and renaming knobs, given to New (or RunSim) via WithTuning.
// Unset (zero) fields take the built-in default; Auto in a field resolves
// to the field's static default. The profile is fixed for the runtime's
// lifetime: NewSession ignores WithTuning.
type Tuning struct {
	// Grain governs TaskLoop chunk sizing for chunk == Auto call sites.
	// Fixed(v): Auto call sites use chunk v. Unset or Auto: about four
	// chunks per worker (n/(4·workers)).
	Grain Setting
	// StealBackoff governs the polling idle throttle (native runtimes only —
	// the simulator's idle waiting is event-driven and this knob is a no-op
	// there). Fixed(v): the idle sleep cap is pinned to v microseconds.
	// Unset or Auto: the static default throttle.
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

// merge overlays src's set fields onto dst (unset src fields inherit).
func (dst *Tuning) merge(src Tuning) {
	if src.Grain.isSet() {
		dst.Grain = src.Grain
	}
	if src.StealBackoff.isSet() {
		dst.StealBackoff = src.StealBackoff
	}
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
