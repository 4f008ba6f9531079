package ompss

// Auto is the "let the runtime decide" sentinel, usable in two places:
//
//   - as the chunk argument of TaskLoop (rt.TaskLoop(n, ompss.Auto, ...)):
//     the chunk size is chosen by the grain controller when one is active
//     (WithTuning(Tuning{Grain: Auto})), or by a workers-derived heuristic
//     otherwise. Only exactly Auto means controller-chosen; any other
//     non-positive chunk keeps the historical clamp-to-1 behavior.
//   - as a Tuning profile field (Tuning{Grain: Auto, ...}): the matching
//     feedback loop runs online (see Tuning).
//
// It is an untyped constant so it converts to both int and Setting.
const Auto = -1

// Setting is one knob of a Tuning profile. The zero value means "unset —
// inherit" (the runtime default at New, the runtime's profile at
// NewSession), Auto hands the knob to the feedback controller, and
// Fixed(v) pins it. For boolean knobs use On / Off (aliases of Fixed(1) /
// Fixed(0)).
type Setting int

const (
	// settingAuto is Auto converted to Setting (kept unexported: the
	// public spelling is the untyped Auto).
	settingAuto Setting = -1
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

// isAuto reports whether the knob is controller-managed.
func (s Setting) isAuto() bool { return s == settingAuto }

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

// Tuning is the runtime's coherent knob profile — the one surface for the
// scheduling and renaming knobs and the feedback controller's switches.
// Accepted uniformly at New and NewSession via
// WithTuning; unset (zero) fields inherit — the built-in default at New,
// the runtime's resolved profile at NewSession — exactly the session
// precedence rules sessions already follow field by field.
//
// Setting any field to Auto arms the corresponding feedback loop
// (internal/tune): the runtime then consumes its own telemetry — per-label
// execution-time EWMAs, the steal matrix, rename-fallback counters — and
// adapts the knob online. Auto is only meaningful at New (the controller
// is per-runtime); a session profile can pin values but not arm loops.
type Tuning struct {
	// Grain governs TaskLoop chunk sizing for chunk == Auto call sites.
	// Auto: chunks are sized online so one chunk's body runs for about the
	// controller's target window, from the label's measured per-iteration
	// cost. Fixed(v): Auto call sites use chunk v. Unset: a workers-derived
	// heuristic.
	Grain Setting
	// StealBackoff governs the polling idle throttle. Auto: the spin-yield
	// budget and sleep cap adapt to the measured steal-failure rate
	// (native runtimes only — the simulator's idle waiting is event-driven
	// and this knob is a documented no-op there). Fixed(v): the idle sleep
	// cap is pinned to v microseconds. Unset: the static default throttle.
	StealBackoff Setting
	// RenameCap bounds live renamed instances per datum: a write that
	// would exceed the cap stalls on its WAR/WAW edges instead, keeping
	// the memory held by in-flight copies proportional to the cap, not to
	// the submission depth. Fixed(v): cap v. Auto: the cap widens under
	// sustained rename fallbacks and decays back when they stop. Unset:
	// core.DefaultMaxVersions.
	RenameCap Setting
	// Renaming toggles dependence renaming (data versioning), the
	// StarSs/OmpSs mechanism that eliminates WAR/WAW stalls: a writer on
	// a renameable datum (Datum.EnableRenaming) whose only obstacles are
	// earlier readers — or, for output-only writes, an unfinished earlier
	// writer — gets a fresh private instance instead of waiting; the
	// readers keep the old instance, and the latest instance is copied
	// back onto the canonical storage when everything in flight has
	// drained. On / Off; unset inherits (default off). Both backends share
	// the single decision path in the dependence tracker, so native and
	// simulated runs stay value-identical either way.
	//
	// Failure propagation (OnError) follows the edges that remain: a
	// renamed writer does not consume the earlier tasks' output, so under
	// SkipDependents it runs (and publishes) even when a program-order
	// predecessor it never depended on fails. A renamed InOut keeps its
	// true RAW edge and still inherits the previous writer's failure.
	Renaming Setting
	// Locality toggles locality-aware scheduling: successors released by
	// a finishing task are placed at the head of the finishing worker's
	// queue so producer→consumer chains run back-to-back on one core (the
	// paper's ray-rot analysis credits this policy). On / Off; unset
	// inherits (default on).
	Locality Setting
	// Affinity toggles honoring Affinity clause hints: on, a hinted task
	// is submitted to the mailbox of its datum's home lane; off, hinted
	// tasks join the global FIFO like any other. On / Off; unset inherits
	// (default on).
	Affinity Setting
	// Domains splits the workers into Fixed(n) contiguous steal domains
	// (modeling sockets): an idle worker probes every victim in its own
	// domain before crossing into another. Unset or n < 2 means flat
	// random-victim stealing.
	Domains Setting
}

// merge overlays src's set fields onto dst (unset src fields inherit).
func (dst *Tuning) merge(src Tuning) {
	if src.Grain.isSet() {
		dst.Grain = src.Grain
	}
	if src.StealBackoff.isSet() {
		dst.StealBackoff = src.StealBackoff
	}
	if src.RenameCap.isSet() {
		dst.RenameCap = src.RenameCap
	}
	if src.Renaming.isSet() {
		dst.Renaming = src.Renaming
	}
	if src.Locality.isSet() {
		dst.Locality = src.Locality
	}
	if src.Affinity.isSet() {
		dst.Affinity = src.Affinity
	}
	if src.Domains.isSet() {
		dst.Domains = src.Domains
	}
}

// anyAuto reports whether any field arms a feedback loop.
func (t Tuning) anyAuto() bool {
	return t.Grain.isAuto() || t.StealBackoff.isAuto() || t.RenameCap.isAuto()
}

// WithTuning applies a Tuning profile: set fields override the current
// configuration, unset fields inherit. Valid at New and NewSession; a later
// WithTuning overrides field by field in order.
func WithTuning(t Tuning) Option {
	return func(c *config) { c.tun.merge(t) }
}

// Resolved accessors: the single place profile fields become engine
// configuration, including the pre-profile defaults for unset knobs.

// localityOn resolves the locality knob (default on).
func (c config) localityOn() bool { return c.tun.Locality.boolOr(true) }

// affinityOn resolves the affinity knob (default on).
func (c config) affinityOn() bool { return c.tun.Affinity.boolOr(true) }

// domainsN resolves the steal-domain count (0 = flat).
func (c config) domainsN() int {
	v, _ := c.tun.Domains.value()
	return v
}

// renamingOn resolves the renaming toggle (default off).
func (c config) renamingOn() bool { return c.tun.Renaming.boolOr(false) }

// renameCapN resolves the pinned version cap (0 = engine default; an Auto
// cap also starts from the engine default and adapts from there).
func (c config) renameCapN() int {
	v, _ := c.tun.RenameCap.value()
	return v
}

// tuningActive reports whether this configuration arms the feedback
// controller.
func (c config) tuningActive() bool { return c.tun.anyAuto() }
