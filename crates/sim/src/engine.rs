//! The trace-driven simulation engine.
//!
//! Binds everything together per the Section V protocol: every two
//! simulated minutes each game operator observes the per-server-group
//! player counts from the input trace, predicts the next step, converts
//! the prediction into resource demand, and adjusts its leases through
//! the request–offer matching mechanism; the collector then scores
//! allocation against the *actual* demand (Equations 1–2).

use crate::demand::DemandModel;
use crate::metrics::MetricsCollector;
use crate::provision::{AdjustOutcome, GroupProvisioner, ReleaseCause};
use mmog_datacenter::center::{DataCenter, Lease};
use mmog_datacenter::matching::{MatchStats, RejectionTotals};
use mmog_datacenter::request::OperatorId;
use mmog_datacenter::resource::ResourceVector;
use mmog_datacenter::Federation;
use mmog_faults::{FaultKind, FaultSchedule, ScenarioEventKind, ScenarioTimeline};
use mmog_obs::{
    Document, Domain, Event, EventSink, FlightRecorder, FlightTrigger, Sinks, StageInstruments,
    TickRecord,
};
use mmog_predict::eval::PredictorKind;
use mmog_util::geo::{DistanceClass, GeoPoint};
use mmog_util::rng::stream_seed;
use mmog_util::series::TimeSeries;
use mmog_util::time::{SimTime, TICKS_PER_DAY};
use mmog_workload::runescape::RuneScapeConfig;
use mmog_workload::stream::StreamingTrace;
use mmog_workload::trace::GameTrace;
use mmog_world::update::UpdateModel;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How resources are provisioned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationMode {
    /// Prediction-driven adjustment every two minutes.
    Dynamic,
    /// One peak-sized allocation at the start, never adjusted — "the
    /// current industry practice" the paper argues against.
    Static,
}

impl AllocationMode {
    /// Stable lower-case label used in trace events.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Dynamic => "dynamic",
            Self::Static => "static",
        }
    }
}

/// A game's player-count workload: a fully materialized trace, or a
/// generator configuration the engine expands tick by tick in O(1)
/// memory per group. The two forms are byte-identical for the same
/// configuration (see [`mmog_workload::stream`]); streaming is what
/// makes thousand-group / million-player runs representable at all.
#[derive(Debug, Clone)]
pub enum GameWorkload {
    /// Materialized per-group series (the paper-scale default), shared:
    /// configurations built on the same cached trace (see
    /// [`mmog_workload::cache`]) and the simulations they build all read
    /// one resident copy, and cloning the workload clones the handle.
    Trace(Arc<GameTrace>),
    /// Streamed from the RuneScape-like generator during the run; no
    /// full-length series is ever held in memory.
    Streaming(RuneScapeConfig),
}

impl GameWorkload {
    /// Number of server groups this workload drives, without
    /// materialising anything.
    #[must_use]
    pub fn group_count(&self) -> usize {
        match self {
            Self::Trace(trace) => trace.total_groups(),
            Self::Streaming(cfg) => cfg.regions.iter().map(|r| r.groups as usize).sum(),
        }
    }
}

impl From<GameTrace> for GameWorkload {
    fn from(trace: GameTrace) -> Self {
        Self::Trace(Arc::new(trace))
    }
}

impl From<Arc<GameTrace>> for GameWorkload {
    fn from(trace: Arc<GameTrace>) -> Self {
        Self::Trace(trace)
    }
}

impl From<RuneScapeConfig> for GameWorkload {
    fn from(cfg: RuneScapeConfig) -> Self {
        Self::Streaming(cfg)
    }
}

/// One MMOG handled by the ecosystem.
#[derive(Debug, Clone)]
pub struct GameSpec {
    /// Display name.
    pub name: String,
    /// Base operator id; each region of the trace gets `base + region`.
    pub operator_base: u32,
    /// The game's interaction/update model (Sec. V-C axis).
    pub update_model: UpdateModel,
    /// Latency tolerance (Sec. V-E axis).
    pub tolerance: DistanceClass,
    /// Demand headroom multiplier (1.0 = allocate the prediction).
    pub headroom: f64,
    /// The load predictor (Sec. V-B axis).
    pub predictor: PredictorKind,
    /// The player-count workload.
    pub workload: GameWorkload,
    /// Per-group peak players used by static provisioning.
    pub static_peak_players: f64,
    /// Request priority (lower = served first each tick). The paper's
    /// future work proposes "prioritizing the resource requests
    /// according to the interaction type of the MMOG"; this knob
    /// implements it. Ties process in insertion order.
    pub priority: i32,
}

/// Full simulation configuration.
#[derive(Debug)]
pub struct SimulationConfig {
    /// The hosting platform.
    pub centers: Vec<DataCenter>,
    /// The games sharing it.
    pub games: Vec<GameSpec>,
    /// Provisioning mode (applies to every game).
    pub mode: AllocationMode,
    /// Ticks to simulate (`None` = shortest trace length).
    pub ticks: Option<usize>,
    /// Leading ticks excluded from the metrics (provisioning warm-up;
    /// the paper's two-week averages are insensitive to the first hour).
    pub warmup_ticks: usize,
    /// Ticks of each group's history used as the neural predictor's
    /// offline data-collection phase.
    pub train_ticks: usize,
    /// Master seed for the per-group random streams (each group trains
    /// its predictor from stream `i` of this seed, so results are
    /// bit-identical no matter how many threads build or run the
    /// simulation).
    pub master_seed: u64,
    /// Fault-injection schedule. `None` (the default everywhere)
    /// reproduces the unfaulted simulation byte-for-byte: no retry
    /// policy is installed, no fault counters are registered, and the
    /// trace label is unchanged. `Some` plays the schedule's timed
    /// events — outages, degradations, lease revocations, predictor
    /// dropouts — from the engine's serial effect stage, ahead of the
    /// tick's scenario events, so fault runs stay deterministic for any
    /// `--jobs`.
    pub faults: Option<FaultSchedule>,
    /// Scenario timeline: topology mutations (partitions, link
    /// degradation), zone migrations, region failovers and flash
    /// crowds. `None` (the default everywhere) reproduces the
    /// scenario-free simulation byte-for-byte: the matcher sees the
    /// nominal topology (every center reachable, every link factor
    /// 1.0), which leaves every distance exactly as measured. `Some`
    /// plays the timeline from the engine's serial effect stage, merged
    /// with the fault schedule into one effect timeline.
    pub scenario: Option<ScenarioTimeline>,
    /// The observability outputs this run feeds: trace, time series,
    /// flight recorder and live tap. The default (every sink off, as the
    /// scenario builders leave it) reproduces the unobserved simulation
    /// byte-for-byte.
    pub sinks: Sinks,
}

/// Per-center usage integrated over the simulation (the Figures 13–14
/// raw data). "Unit-ticks" are resource-units held × 2-minute ticks.
#[derive(Debug, Clone)]
pub struct CenterUsage {
    /// Center name.
    pub name: String,
    /// Center CPU capacity, units.
    pub capacity_cpu: f64,
    /// CPU unit-ticks held, per operator id.
    pub cpu_by_operator: BTreeMap<u32, f64>,
    /// Total CPU unit-ticks held.
    pub cpu_total: f64,
    /// Free CPU unit-ticks.
    pub cpu_free: f64,
}

/// Per-game metric breakdown.
#[derive(Debug, Clone)]
pub struct GameMetrics {
    /// The game's display name.
    pub name: String,
    /// Ω/Υ/event metrics for this game's groups only. M of Eq. 2 is the
    /// game's own group count.
    pub metrics: MetricsCollector,
}

/// What a simulation run produces.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Aggregate Ω/Υ/event metrics.
    pub metrics: MetricsCollector,
    /// Per-game breakdown (same order as the configuration's games).
    pub per_game: Vec<GameMetrics>,
    /// Per-center usage attribution.
    pub center_usage: Vec<CenterUsage>,
    /// Operator id → (region name, origin) for usage attribution.
    pub operator_origins: BTreeMap<u32, (String, GeoPoint)>,
    /// Aggregate demand (CPU) over time, for plotting.
    pub demand_cpu_series: TimeSeries,
    /// Aggregate allocation (CPU) over time.
    pub alloc_cpu_series: TimeSeries,
    /// Number of adjustment steps whose request was partially unmet.
    pub unmet_steps: u64,
    /// Ticks simulated (after warm-up exclusion they are all scored).
    pub ticks: usize,
    /// Matcher rejections aggregated over every adjustment step of the
    /// run, by reason.
    pub rejections: RejectionTotals,
    /// Σ over all ticks of players × (CPU shortfall fraction): the
    /// player-ticks the platform failed to serve. Zero in a healthy run.
    pub unserved_player_ticks: f64,
    /// Time-to-recover, in ticks, for each outage episode that healed:
    /// from the tick the center went down to the first tick with no
    /// unserved players anywhere.
    pub recovery_ticks: Vec<u64>,
    /// Outage episodes still unhealed when the run ended.
    pub unrecovered_outages: usize,
    /// Fault events applied during the run.
    pub fault_events: u64,
    /// Leases lost to outages and spontaneous revocations.
    pub leases_revoked: u64,
    /// Leases granted while re-acquiring fault-lost capacity.
    pub reprovisions: u64,
    /// Scenario events applied during the run (partitions, heals, link
    /// changes, migrations, failover drains, flash crowds).
    pub scenario_events: u64,
    /// Zone migrations executed: explicit `Migrate` events that found
    /// leases to move, plus one per group drained by a region failover.
    pub migrations: u64,
    /// Σ players × migration-cost ticks charged by migrations. Also
    /// included in `unserved_player_ticks` (migration is player-visible
    /// downtime); this field isolates the migration share.
    pub migration_player_ticks: f64,
    /// The flight-recorder dump this run produced, if flight recording
    /// was configured and a trigger fired. `None` on every un-configured
    /// run, so baseline reports are unaffected.
    pub flight_dump: Option<FlightDumpReport>,
}

/// Mirror of [`mmog_obs::FlightDumpInfo`] carried in the report so
/// harnesses can assert on trigger decisions without re-reading the
/// artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDumpReport {
    /// What fired the dump (`fault`, `partition`, `migration`,
    /// `deadline_overrun`, `gate_breach`, `explicit`).
    pub trigger: String,
    /// Tick the trigger fired on.
    pub trigger_tick: u64,
    /// Oldest tick in the dumped window.
    pub tick_from: u64,
    /// Newest tick in the dumped window.
    pub tick_to: u64,
    /// Event records dumped (excluding the meta line).
    pub records: u64,
    /// Artifact path.
    pub path: String,
}

/// A group's hot per-tick state, split struct-of-arrays style out of
/// [`GroupRuntime`]: every field here is read or written by every tick,
/// so the engine keeps one contiguous `Vec<GroupHot>` that the
/// predict stage writes and the ordered reduction scans — a linear walk
/// over packed 80-byte records instead of chasing provisioner-sized
/// structs. Both run serially in group-index order.
#[derive(Debug, Clone, Copy, Default)]
struct GroupHot {
    /// This tick's observed player count, filled from the group's
    /// workload source before the predict stage.
    players: f64,
    demand: ResourceVector,
    alloc: ResourceVector,
    short: ResourceVector,
    /// The allocation the settle stage aims for: the prediction in
    /// dynamic mode, the fixed peak allocation in static mode.
    target: ResourceVector,
    /// Σ|predicted − actual| players over scored ticks (the paper's
    /// un-normalized sample prediction error, accumulated online).
    abs_err_sum: f64,
    /// Σ actual players over the same ticks (the metric's denominator).
    actual_sum: f64,
}

/// A group's cold state: touched once per tick at most (the provisioner
/// during predict/settle), never scanned by the reduction.
struct GroupRuntime {
    provisioner: GroupProvisioner,
    demand_model: DemandModel,
    /// Index into the configuration's game list.
    game: usize,
}

/// Where one game's per-tick player counts come from. Each source
/// covers a contiguous range of global group indices starting at
/// `start` (games are enumerated in configuration order).
enum WorkloadSource {
    /// The configuration's shared trace, read in place: its groups in
    /// region order, each series indexed by tick.
    Materialized { start: usize, trace: Arc<GameTrace> },
    /// Lazily generated; `next_tick` yields each tick's counts in O(1)
    /// memory per group.
    Streaming {
        start: usize,
        stream: StreamingTrace,
    },
}

/// Minimum wall-clock gap between live-tap writes. On top of the tick
/// interval, writes are wall-clock throttled: a dashboard cannot use
/// more than a few frames per second, and each atomic publish costs two
/// filesystem syscalls — without the throttle, fast runs spend
/// percent-level wall on the tap. The throttle is pure timing (which
/// ticks get published); nothing semantic flows back into the run, and
/// the final `done` snapshot is always written.
const MIN_LIVE_WRITE_GAP: Duration = Duration::from_millis(250);

fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Adds one tick of a center's leased CPU into its per-operator usage
/// accumulators: `sums[op]` gains the CPU of every `(op, cpu)` entry of
/// `mirror` (a center's `lease_cpu` mirror), in mirror order, and
/// `touched[op]` is set for every operator that appears.
///
/// A ledger holds long runs of one operator, so the running sum of the
/// current run stays in a local and is written back only when the
/// operator changes; an accumulator-per-lease loop would make every add
/// wait on the store of the previous one. Each `sums[op]` still
/// receives the same additions in the same order, so the result is
/// bit-identical to that loop.
///
/// # Panics
/// Panics if an operator id is out of range of `sums` or `touched`.
pub fn attribute_usage(mirror: &[(u32, f64)], sums: &mut [f64], touched: &mut [bool]) {
    let Some(&(first, _)) = mirror.first() else {
        return;
    };
    let mut op = first as usize;
    let mut run = sums[op];
    touched[op] = true;
    for &(next, cpu) in mirror {
        let next = next as usize;
        if next != op {
            sums[op] = run;
            op = next;
            run = sums[op];
            touched[op] = true;
        }
        run += cpu;
    }
    sums[op] = run;
}

/// The `lease_release` lifecycle event. Every release cause —
/// settle-step surplus and reshape, outages, migrations, failovers and
/// the run-end closure — builds its event here.
fn lease_release(
    tick: u64,
    center: usize,
    lease: &Lease,
    operator: u32,
    cause: ReleaseCause,
) -> Event<'static> {
    Event::LeaseRelease {
        tick,
        center: center as u64,
        lease: lease.id.0,
        operator: u64::from(operator),
        cpu: lease.amounts.cpu,
        cause: cause.label(),
    }
}

/// Which groups a settle pass adjusts, in what order, and towards what.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Settle {
    /// Static mode's one up-front allocation before tick 0: every
    /// group, in index order, to its static target.
    Initial,
    /// Dynamic mode, every tick: every group, in priority order, to its
    /// predicted target.
    Dynamic,
    /// Static mode under faults or scenarios: the operator re-buys its
    /// fixed peak allocation after losing capacity (it never otherwise
    /// adjusts), so only groups with lost capacity take part. Without a
    /// schedule or timeline this pass never runs — static stays
    /// allocate-once.
    Recover,
}

/// What one entry of a run's effect timeline does: a fault at a center
/// (the center is ignored by a predictor dropout) or a scenario event.
#[derive(Clone, Copy)]
enum Effect {
    Fault(usize, FaultKind),
    Scenario(ScenarioEventKind),
}

impl Effect {
    /// The highest center index the effect names, if it names any.
    fn center(self) -> Option<usize> {
        use ScenarioEventKind as S;
        match self {
            Self::Fault(_, FaultKind::PredictorDropout) => None,
            Self::Fault(center, _) => Some(center),
            Self::Scenario(S::RegionFailover { center }) => Some(center as usize),
            Self::Scenario(S::LinkDegrade { a, b, .. } | S::LinkRestore { a, b }) => {
                Some(a.max(b) as usize)
            }
            Self::Scenario(_) => None,
        }
    }
}

/// What one [`Simulation::run`] threads through its tick stages: the
/// report under construction, the effect timeline, the observability
/// planes, and the current tick's intermediate results.
/// Every stage runs serially on the calling thread, so within-run
/// event order is program order — the event-log determinism contract.
struct RunState {
    /// Stages add to the report's counters and series directly;
    /// `finish` fills in the rest.
    report: SimReport,
    sink: Option<EventSink>,
    /// Flight recorder: per-run ring, fed from the serial sections
    /// only; `None` (no flight sink) costs one branch per push site and
    /// changes nothing else.
    flight: Option<FlightRecorder>,
    /// Both planes' events as `(tick, effect)`, merged by tick with
    /// faults first, each plane in its own canonical order.
    effects: Vec<(u64, Effect)>,
    effect_cursor: usize,
    /// Per-region flash-crowd demand multipliers (1.0 = nominal).
    region_flash: Vec<f64>,
    flashes_active: usize,
    /// Open outage episodes as (center, start tick); an episode closes
    /// at the first tick the whole platform serves every player again.
    open_outages: Vec<(usize, u64)>,
    /// M of Eq. 2 per game (see [`Simulation::reduce`]).
    game_machines: Vec<f64>,
    /// Per-game reduction scratch, recycled tick to tick.
    per_game: Vec<(ResourceVector, ResourceVector, ResourceVector)>,
    leases_granted: u64,
    leases_released: u64,
    /// Center usage accumulators, indexed directly by operator id: per
    /// center, (per-operator cpu sum, per-operator touched flag,
    /// free-cpu sum). The operator set is fixed at construction, so the
    /// per-tick attribution ([`attribute_usage`]) indexes a flat array instead of paying
    /// a map lookup per lease. Ids are small dense integers, so the
    /// tables stay tiny, and they ascend with the index, so the final
    /// per-operator maps render identically to the old `BTreeMap`
    /// accumulation (same per-lease addition order, same iteration
    /// order).
    usage: Vec<(Vec<f64>, Vec<bool>, f64)>,
    /// The tick stages' timers, latency histograms and idle-exit
    /// counters, fetched once per run and fed each finished tick.
    stages: StageInstruments,
    /// The matcher's tallies, shared by every group's provisioner and
    /// published at the end of every settle stage.
    match_stats: MatchStats,
    /// Time-series plane: fixed-memory ring series per metric, sampled
    /// once per tick from the serial tail. Downsampling is a pure
    /// function of the sample sequence, so the semantic series are
    /// byte-identical across `--jobs`. `None` (no time-series sink)
    /// costs one branch per tick and changes nothing.
    ts: Option<mmog_obs::TsDocument<mmog_obs::RingSeries>>,
    /// Live telemetry tap state; the tap itself is the run's live sink.
    last_live_write: Option<Instant>,
    live_writes: u64,
    live_write_ns: u64,
    run_start_wall: Instant,
    /// The current tick's outcome, filled stage by stage and read by
    /// every observability plane. It, `dropout` and `trigger` are reset
    /// at the top of every tick.
    record: TickRecord,
    /// The fault schedule dropped the predictor this tick.
    dropout: bool,
    /// The flight-recorder trigger this tick's applied effects raised.
    /// The first one raised wins, which is also the priority order:
    /// faults apply before scenario events, and partitions sort before
    /// migrations and failovers.
    trigger: Option<FlightTrigger>,
}

impl RunState {
    /// Emits the `provision` event for one adjustment step that changed
    /// anything, plus one `match_reject` event per center the matcher
    /// considered and rejected when part of the request went unmet. The
    /// same step also lands in the flight ring (when a recorder is active)
    /// so a triggered dump carries provisioning detail even when the full
    /// trace is off.
    ///
    /// On traced runs the step's causal lease-lifecycle chain rides along,
    /// in the order the provisioner performed it: maturities observed this
    /// tick, releases (with cause), then the request and the grants that
    /// answered it. Grants carry the request id, so the analyzer can
    /// reconstruct every lease's waterfall without guessing.
    fn emit_adjust(
        &mut self,
        provisioner: &GroupProvisioner,
        target: &ResourceVector,
        out: &AdjustOutcome,
    ) {
        let tick = self.record.tick;
        let detail = provisioner.lifecycle_detail();
        let changed = out.granted > 0 || out.released > 0 || out.unmet;
        if !changed && detail.is_empty() {
            return;
        }
        let op = provisioner.operator.0;
        let provision = Event::Provision {
            tick,
            operator: u64::from(op),
            granted: out.granted as u64,
            released: out.released as u64,
            unmet: out.unmet,
            target_cpu: target.cpu,
            alloc_cpu: provisioner.allocated().cpu,
        };
        if changed {
            self.flight_push(provision);
        }
        let Some(sink) = &mut self.sink else { return };
        for &(center, lease_id) in &detail.matured {
            sink.emit(&Event::LeaseMature {
                tick,
                center: center as u64,
                lease: lease_id.0,
                operator: u64::from(op),
            });
        }
        for &(center, ref lease, cause) in &detail.releases {
            sink.emit(&lease_release(tick, center, lease, op, cause));
        }
        if let Some((request, cpu)) = detail.request {
            sink.emit(&Event::LeaseRequest {
                tick,
                request,
                group: request >> 32,
                operator: u64::from(op),
                cpu,
            });
            for (center, lease) in &detail.grants {
                sink.emit(&Event::LeaseGrant {
                    tick,
                    request,
                    center: *center as u64,
                    lease: lease.id.0,
                    operator: u64::from(op),
                    cpu: lease.amounts.cpu,
                });
            }
        }
        if !changed {
            return;
        }
        sink.emit(&provision);
        if out.unmet {
            for r in &provisioner.last_match().rejections {
                sink.emit(&Event::MatchReject {
                    tick,
                    operator: u64::from(op),
                    center: r.center_index as u64,
                    reason: r.reason.label(),
                });
            }
        }
    }

    /// Appends `event` to the trace when tracing is on. Building an
    /// event only copies scalars and borrows strings, so call sites need
    /// no gate of their own unless computing a field costs work.
    fn trace(&mut self, event: &Event<'_>) {
        if let Some(sink) = self.sink.as_mut() {
            sink.emit(event);
        }
    }

    /// Pushes one event into the flight ring, when one is recording.
    fn flight_push(&mut self, event: Event<'static>) {
        if let Some(rec) = self.flight.as_mut() {
            rec.push(event);
        }
    }

    /// Scenario events go to both planes: the flight ring, so a
    /// triggered dump shows what changed, and the trace.
    fn record_event(&mut self, event: Event<'static>) {
        self.flight_push(event);
        self.trace(&event);
    }

    /// Opens an outage episode at `center` now, unless one is open.
    fn open_outage(&mut self, center: usize) {
        if !self.open_outages.iter().any(|(c, _)| *c == center) {
            self.open_outages.push((center, self.record.tick));
        }
    }

    /// Pops the effect timeline's next event if it fires this tick.
    fn next_effect(&mut self) -> Option<Effect> {
        let (_, effect) = *self
            .effects
            .get(self.effect_cursor)
            .filter(|(tick, _)| *tick == self.record.tick)?;
        self.effect_cursor += 1;
        Some(effect)
    }
}

/// The simulation itself.
pub struct Simulation {
    /// Scenario-free runs keep the platform's nominal topology, under
    /// which effective distances equal raw ones bit for bit.
    platform: Federation,
    groups: Vec<GroupRuntime>,
    /// Hot per-group state, one contiguous array (SoA split of the
    /// group runtimes); indexed like `groups`.
    hot: Vec<GroupHot>,
    /// Per-game player-count sources, contiguous over group indices.
    sources: Vec<WorkloadSource>,
    /// Scratch for streaming sources' per-tick output (sized once to
    /// the widest streaming game, so the tick loop never allocates).
    players_scratch: Vec<f64>,
    mode: AllocationMode,
    ticks: usize,
    warmup: usize,
    operator_origins: BTreeMap<u32, (String, GeoPoint)>,
    game_names: Vec<String>,
    /// Group indices in request-processing order (by game priority).
    order: Vec<usize>,
    /// Deterministic configuration-derived label the run's trace chunk
    /// is submitted under.
    trace_label: String,
    /// The two effect planes, merged by [`start`](Self::start).
    faults: Option<FaultSchedule>,
    scenario: Option<ScenarioTimeline>,
    /// Either plane is present: the run turns on retry backoff,
    /// re-buys lost static capacity and accounts unserved players.
    disturbed: bool,
    /// Each group's region id (regions are enumerated in configuration
    /// order across games); flash crowds resolve against this table.
    region_ids: Vec<u32>,
    /// Groups per region id, for the `flash_crowd` event payload.
    region_group_counts: Vec<u64>,
    /// The run's observability outputs.
    sinks: Sinks,
}

impl Simulation {
    /// Builds the runtime from a configuration.
    ///
    /// # Panics
    /// Panics when a game's trace is empty.
    #[must_use]
    pub fn new(cfg: SimulationConfig) -> Self {
        let _span = mmog_obs::span("sim/build");
        // Pass 1 (serial): enumerate groups in configuration order and
        // collect everything each one needs. The group index assigned
        // here also names the group's random stream, so it must not
        // depend on scheduling.
        struct GroupSpec<'a> {
            game: usize,
            operator: OperatorId,
            origin: GeoPoint,
            /// The predictor's training history: a slice of the
            /// configured trace, or a streaming game's generated prefix.
            history: Cow<'a, [f64]>,
            /// The group's index: its causal-group id and the stream
            /// its predictor is seeded from.
            index: u64,
        }
        let mut specs: Vec<GroupSpec<'_>> = Vec::new();
        // Each game's per-tick player-count source, contiguous over
        // group indices: the shared materialized trace or a fresh
        // stream that replays from tick 0.
        let mut sources = Vec::with_capacity(cfg.games.len());
        let mut players_scratch_len = 0usize;
        let mut operator_origins = BTreeMap::new();
        let mut min_len = usize::MAX;
        // Region enumeration for the scenario plane: each (game, region)
        // gets the next id, each group records its region's id. Pure
        // configuration order, so flash-crowd targeting is
        // jobs-independent.
        let mut region_ids: Vec<u32> = Vec::new();
        let mut region_group_counts: Vec<u64> = Vec::new();
        for (game_idx, game) in cfg.games.iter().enumerate() {
            let start = specs.len();
            match &game.workload {
                GameWorkload::Trace(trace) => {
                    for region in &trace.regions {
                        let operator = OperatorId(game.operator_base + u32::from(region.region.0));
                        let origin = crate::scenario::region_origin(&region.name);
                        operator_origins.insert(operator.0, (region.name.clone(), origin));
                        let rid = region_group_counts.len() as u32;
                        region_group_counts.push(region.groups.len() as u64);
                        for group in &region.groups {
                            region_ids.push(rid);
                            assert!(!group.series.is_empty(), "empty trace for {}", region.name);
                            min_len = min_len.min(group.series.len());
                            let train_end = cfg.train_ticks.min(group.series.len());
                            specs.push(GroupSpec {
                                game: game_idx,
                                operator,
                                origin,
                                history: Cow::Borrowed(&group.series.values()[..train_end]),
                                index: specs.len() as u64,
                            });
                        }
                    }
                    let trace = Arc::clone(trace);
                    sources.push(WorkloadSource::Materialized { start, trace });
                }
                GameWorkload::Streaming(rs) => {
                    let ticks = (rs.days * TICKS_PER_DAY) as usize;
                    assert!(ticks > 0, "empty streaming workload for {}", game.name);
                    min_len = min_len.min(ticks);
                    let train_end = cfg.train_ticks.min(ticks);
                    for (ri, region) in rs.regions.iter().enumerate() {
                        let operator = OperatorId(game.operator_base + ri as u32);
                        let origin = crate::scenario::region_origin(&region.name);
                        operator_origins.insert(operator.0, (region.name.clone(), origin));
                        let rid = region_group_counts.len() as u32;
                        region_group_counts.push(u64::from(region.groups));
                        for _ in 0..region.groups {
                            region_ids.push(rid);
                            specs.push(GroupSpec {
                                game: game_idx,
                                operator,
                                origin,
                                history: Cow::Owned(Vec::with_capacity(train_end)),
                                index: specs.len() as u64,
                            });
                        }
                    }
                    // Predictor training needs each group's leading
                    // `train_end` ticks: stream exactly that prefix into
                    // per-group buffers (the run itself streams from
                    // tick 0 on its own fresh, identical source). This is
                    // the only trace-length-proportional memory a
                    // streaming game ever holds, and only when training
                    // is on.
                    if train_end > 0 {
                        let mut stream = StreamingTrace::new(rs);
                        let mut row = vec![0.0f64; stream.group_count()];
                        for _ in 0..train_end {
                            assert!(stream.next_tick(&mut row), "prefix within trace length");
                            for (spec, &v) in specs[start..].iter_mut().zip(&row) {
                                spec.history.to_mut().push(v);
                            }
                        }
                    }
                    let stream = StreamingTrace::new(rs);
                    players_scratch_len = players_scratch_len.max(stream.group_count());
                    sources.push(WorkloadSource::Streaming { start, stream });
                }
            }
        }
        // Pass 2 (parallel): the offline phase. Training one MLP per
        // server group dominates construction cost; each group's
        // training is self-contained (own history slice, own seed), so
        // the fan-out is embarrassingly parallel and order-preserving.
        let train_span = mmog_obs::span("sim/build/train");
        let record_lifecycle = cfg.sinks.trace.is_some();
        // Self-healing re-provisioning only backs off under fault or
        // scenario injection; the undisturbed baseline keeps its
        // request-every-tick behaviour bit-for-bit.
        let disturbed = cfg.faults.is_some() || cfg.scenario.is_some();
        let groups: Vec<GroupRuntime> = mmog_par::par_map(&specs, |spec| {
            let game = &cfg.games[spec.game];
            let demand_model = DemandModel::paper(game.update_model);
            let seed = stream_seed(cfg.master_seed, spec.index);
            let predictor = game.predictor.build_seeded(&spec.history, seed);
            let mut provisioner = GroupProvisioner::new(
                spec.operator,
                spec.index,
                spec.origin,
                game.tolerance,
                demand_model,
                game.headroom,
                predictor,
            );
            provisioner.record_lifecycle = record_lifecycle;
            provisioner.retry = disturbed;
            GroupRuntime {
                provisioner,
                demand_model,
                game: spec.game,
            }
        });
        drop(train_span);
        drop(specs); // the streaming training prefixes are spent

        // Every group starts out targeting its static peak allocation,
        // which static mode keeps for the whole run.
        let hot = groups
            .iter()
            .map(|g| GroupHot {
                target: g
                    .provisioner
                    .static_target(cfg.games[g.game].static_peak_players),
                ..GroupHot::default()
            })
            .collect();
        mmog_obs::counter("sim.groups", Domain::Semantic).add(groups.len() as u64);
        mmog_obs::gauge("sim.groups_max", Domain::Semantic).set_max(groups.len() as i64);
        assert!(
            !groups.is_empty(),
            "simulation needs at least one server group"
        );
        let ticks = cfg.ticks.unwrap_or(min_len).min(min_len);
        // Stable sort keeps insertion order among equal priorities.
        let mut order: Vec<usize> = (0..groups.len()).collect();
        order.sort_by_key(|&gi| cfg.games[groups[gi].game].priority);
        let trace_label = Self::trace_label(&cfg, ticks);
        Self {
            platform: Federation::new(cfg.centers),
            hot,
            players_scratch: vec![0.0; players_scratch_len],
            sources,
            groups,
            mode: cfg.mode,
            ticks,
            warmup: cfg.warmup_ticks.min(ticks),
            operator_origins,
            game_names: cfg.games.iter().map(|g| g.name.clone()).collect(),
            order,
            trace_label,
            faults: cfg.faults,
            scenario: cfg.scenario,
            disturbed,
            region_ids,
            region_group_counts,
            sinks: cfg.sinks,
        }
    }

    /// The label a run's trace chunk is submitted under. It identifies
    /// the run by configuration alone, so identical configs produce
    /// identical chunks and the trace file sorts deterministically
    /// regardless of completion order.
    fn trace_label(cfg: &SimulationConfig, ticks: usize) -> String {
        let game_tags: Vec<String> = cfg
            .games
            .iter()
            .map(|g| format!("{}:{}:p{}", g.name, g.predictor.label(), g.priority))
            .collect();
        let mut label = format!(
            "sim mode={:?} seed={} ticks={} warmup={} centers={} games=[{}]",
            cfg.mode,
            cfg.master_seed,
            ticks,
            cfg.warmup_ticks,
            cfg.centers.len(),
            game_tags.join(",")
        );
        // Faulted runs label their chunks distinctly so they never
        // collide with (or perturb) an unfaulted run's chunk.
        if let Some(faults) = &cfg.faults {
            label += &format!(" faults=[{}]", faults.label());
        }
        // Scenario runs likewise label their chunks distinctly.
        if let Some(scenario) = &cfg.scenario {
            label += &format!(" scenario=[{}]", scenario.label());
        }
        label
    }

    /// Runs the simulation to completion: run-level set-up, one step
    /// per tick, then teardown into the report.
    #[must_use]
    pub fn run(mut self) -> SimReport {
        let _run_span = mmog_obs::span("sim/run");
        let mut run = self.start();
        for t in 0..self.ticks {
            self.step(&mut run, t);
        }
        self.finish(run)
    }

    /// Run-level set-up: opens the observability planes, interns the
    /// stage instruments, and (static mode) makes the one up-front
    /// allocation per group.
    fn start(&mut self) -> RunState {
        mmog_obs::counter("sim.runs", Domain::Semantic).incr();
        mmog_obs::counter("sim.ticks", Domain::Semantic).add(self.ticks as u64);
        let game_count = self.game_names.len();
        let mut game_machines = vec![0.0f64; game_count];
        for group in &self.groups {
            game_machines[group.game] += 1.0;
        }
        let ops = 1 + self
            .groups
            .iter()
            .map(|g| g.provisioner.operator.0 as usize)
            .max()
            .unwrap_or(0);
        let faults = self.faults.iter().flat_map(|f| f.events());
        let scenario = self.scenario.iter().flat_map(|s| s.events());
        let mut effects: Vec<_> = faults
            .map(|e| (e.tick, Effect::Fault(e.center, e.kind)))
            .chain(scenario.map(|e| (e.tick, Effect::Scenario(e.kind))))
            .collect();
        // Stable, so within a tick the faults stay ahead of the scenario
        // events and each plane keeps its canonical order.
        effects.sort_by_key(|&(tick, _)| tick);
        let mut run = RunState {
            report: SimReport {
                per_game: self
                    .game_names
                    .iter()
                    .map(|name| GameMetrics {
                        name: name.clone(),
                        metrics: MetricsCollector::new(),
                    })
                    .collect(),
                operator_origins: std::mem::take(&mut self.operator_origins),
                demand_cpu_series: TimeSeries::with_capacity(self.ticks),
                alloc_cpu_series: TimeSeries::with_capacity(self.ticks),
                ticks: self.ticks,
                ..SimReport::default()
            },
            sink: self.sinks.trace.is_some().then(EventSink::new),
            flight: self.sinks.flight.clone().map(FlightRecorder::new),
            effects,
            effect_cursor: 0,
            region_flash: vec![1.0; self.region_group_counts.len().max(1)],
            flashes_active: 0,
            open_outages: Vec::new(),
            game_machines,
            per_game: vec![Default::default(); game_count],
            leases_granted: 0,
            leases_released: 0,
            usage: vec![(vec![0.0; ops], vec![false; ops], 0.0); self.platform.centers().len()],
            stages: StageInstruments::current(),
            match_stats: MatchStats::current(),
            ts: self.sinks.ts.is_some().then(|| {
                let ticks = self.ticks as u64;
                mmog_obs::TsDocument::recorder(
                    &self.trace_label,
                    ticks,
                    mmog_obs::TS_DEFAULT_CAPACITY,
                )
            }),
            last_live_write: None,
            live_writes: 0,
            live_write_ns: 0,
            run_start_wall: Instant::now(),
            record: TickRecord::default(),
            dropout: false,
            trigger: None,
        };
        run.trace(&Event::RunStart {
            mode: self.mode.label(),
            groups: self.groups.len() as u64,
            centers: self.platform.centers().len() as u64,
            ticks: self.ticks as u64,
            warmup: self.warmup as u64,
        });
        if self.mode == AllocationMode::Static {
            self.settle(&mut run, Settle::Initial);
        }
        run
    }

    /// One tick of the Section V protocol, stage by stage.
    fn step(&mut self, run: &mut RunState, t: usize) {
        let tick_start = Instant::now();
        if let Some(rec) = run.flight.as_mut() {
            rec.begin_tick(t as u64);
        }
        run.record = TickRecord {
            tick: t as u64,
            ..TickRecord::default()
        };
        (run.dropout, run.trigger) = (false, None);
        self.fill_players(t);
        self.apply_effects(run);
        self.predict(run);
        self.reduce(run);
        self.settle_stage(run);
        self.account(run);
        run.record.tick_ns = ns_since(tick_start);
        run.stages.record(&run.record);
        self.publish(run);
    }

    /// Fills this tick's player counts into the hot array from each
    /// game's source (serial: streaming sources advance stateful
    /// generators; a materialized trace is a gather over its groups).
    fn fill_players(&mut self, t: usize) {
        let hot = &mut self.hot;
        for src in &mut self.sources {
            match src {
                WorkloadSource::Materialized { start, trace } => {
                    let groups = trace.regions.iter().flat_map(|r| &r.groups);
                    for (slot, group) in hot[*start..].iter_mut().zip(groups) {
                        slot.players = group.series.values()[t];
                    }
                }
                WorkloadSource::Streaming { start, stream } => {
                    let row = &mut self.players_scratch[..stream.group_count()];
                    let produced = stream.next_tick(row);
                    debug_assert!(produced, "ticks clamped to the stream length");
                    for (j, &p) in row.iter().enumerate() {
                        hot[*start + j].players = p;
                    }
                }
            }
        }
    }

    /// Effect application: serial, after the fill (so migration costs
    /// are charged against this tick's player counts) and before the
    /// predict stage (so revoked capacity, dropped leases and flash-crowd
    /// demand are visible the same tick, and events land in program
    /// order). An effect that names a center the platform does not have
    /// is skipped: it is not applied, counted or traced and raises no
    /// flight trigger.
    fn apply_effects(&mut self, run: &mut RunState) {
        use FaultKind as F;
        use ScenarioEventKind as S;
        let tick = run.record.tick;
        // Every group sits in a region and a run has groups, so there
        // is always a region for a flash crowd to pick.
        let n_regions = self.region_group_counts.len() as u64;
        let n_centers = self.platform.centers().len();
        while let Some(effect) = run.next_effect() {
            if effect.center().is_some_and(|c| c >= n_centers) {
                continue;
            }
            if let Effect::Fault(..) = effect {
                run.report.fault_events += 1;
                run.trigger.get_or_insert(FlightTrigger::Fault);
            } else {
                run.report.scenario_events += 1;
            }
            match effect {
                Effect::Fault(center, F::CenterDown) => {
                    let lost = self.platform.fail(center);
                    run.report.leases_revoked += lost.len() as u64;
                    // Terminal lifecycle events for the outage's
                    // victims: groups are walked in index order, so the
                    // emission order is jobs-independent. The failed
                    // center's ledger is already empty, so the drain's
                    // center-side revocation finds nothing.
                    for gi in 0..self.groups.len() {
                        self.drain(run, gi, center, ReleaseCause::CenterDown);
                    }
                    run.open_outage(center);
                    run.trace(&Event::CenterDown {
                        tick,
                        center: center as u64,
                        name: &self.platform.centers()[center].spec.name,
                        leases_lost: lost.len() as u64,
                    });
                }
                Effect::Fault(center, F::CenterUp) => {
                    self.platform.repair(center);
                    run.trace(&Event::CenterUp {
                        tick,
                        center: center as u64,
                        name: &self.platform.centers()[center].spec.name,
                    });
                }
                Effect::Fault(center, F::CenterDegraded { fraction }) => {
                    self.platform.degrade(center, fraction);
                    run.trace(&Event::CenterDegraded {
                        tick,
                        center: center as u64,
                        fraction,
                    });
                }
                Effect::Fault(center, F::LeaseRevoked) => {
                    if let Some(lease) = self.platform.centers_mut()[center].revoke_oldest() {
                        for group in &mut self.groups {
                            if group.provisioner.drop_lease(center, lease.id).is_some() {
                                break;
                            }
                        }
                        run.report.leases_revoked += 1;
                        run.trace(&Event::LeaseRevoked {
                            tick,
                            center: center as u64,
                            lease: lease.id.0,
                            operator: u64::from(lease.operator.0),
                            cpu: lease.amounts.cpu,
                        });
                    }
                }
                Effect::Fault(_, F::PredictorDropout) => {
                    run.dropout = true;
                    run.trace(&Event::PredictorDropout { tick });
                }
                Effect::Scenario(S::Partition { mask }) => {
                    self.platform.partition(mask);
                    run.trigger.get_or_insert(FlightTrigger::Partition);
                    let components = self.platform.topology().components() as u64;
                    run.record_event(Event::Partition {
                        tick,
                        mask,
                        components,
                    });
                }
                Effect::Scenario(S::Heal) => {
                    self.platform.heal();
                    let components = self.platform.topology().components() as u64;
                    run.record_event(Event::Heal { tick, components });
                }
                Effect::Scenario(
                    kind @ (S::LinkDegrade { a, b, .. } | S::LinkRestore { a, b }),
                ) => {
                    let factor = match kind {
                        S::LinkDegrade { factor, .. } => factor,
                        _ => 1.0,
                    };
                    self.platform
                        .set_link_factor(a as usize, b as usize, factor);
                    run.record_event(Event::TopologyChange {
                        tick,
                        a: u64::from(a),
                        b: u64::from(b),
                        factor,
                    });
                }
                Effect::Scenario(kind @ (S::FlashBegin { pick, .. } | S::FlashEnd { pick })) => {
                    let factor = match kind {
                        S::FlashBegin { factor, .. } => {
                            run.flashes_active += 1;
                            factor
                        }
                        _ => {
                            run.flashes_active = run.flashes_active.saturating_sub(1);
                            1.0
                        }
                    };
                    let region = (pick % n_regions) as usize;
                    run.region_flash[region] = factor;
                    run.record_event(Event::FlashCrowd {
                        tick,
                        region: region as u64,
                        factor,
                        groups: self.region_group_counts[region],
                    });
                }
                Effect::Scenario(S::Migrate { pick }) => {
                    let gi = (pick % self.groups.len() as u64) as usize;
                    // Drain the group everywhere it holds leases; the
                    // centers stay up, so each lease must be revoked
                    // center-side too. The principal center is the one
                    // that held the most CPU.
                    let mut total_dropped = 0usize;
                    let mut principal: Option<(usize, f64)> = None;
                    for c in 0..n_centers {
                        let (dropped, cpu) = self.drain(run, gi, c, ReleaseCause::Migration);
                        total_dropped += dropped;
                        if dropped > 0 && principal.is_none_or(|(_, best)| cpu > best) {
                            principal = Some((c, cpu));
                        }
                    }
                    // A group with nothing allocated migrates for free:
                    // nothing moved, nothing charged.
                    if let Some((center, _)) = principal {
                        self.charge_migration(run, gi, center, total_dropped);
                    }
                }
                Effect::Scenario(S::RegionFailover { center }) => {
                    let center = center as usize;
                    for gi in 0..self.groups.len() {
                        let (dropped, _) = self.drain(run, gi, center, ReleaseCause::Failover);
                        if dropped > 0 {
                            self.charge_migration(run, gi, center, dropped);
                        }
                    }
                }
            }
        }
        // Flash crowds multiply demand while active: every group in a
        // surging region sees its player count scaled.
        if run.flashes_active > 0 {
            for (hot, &rid) in self.hot.iter_mut().zip(&self.region_ids) {
                hot.players *= run.region_flash[rid as usize];
            }
        }
    }

    /// Drops every lease group `gi` holds at `center`, revokes each one
    /// center-side, and closes it with a `cause` release event. Returns
    /// the number of leases dropped and their summed CPU.
    fn drain(
        &mut self,
        run: &mut RunState,
        gi: usize,
        center: usize,
        cause: ReleaseCause,
    ) -> (usize, f64) {
        let provisioner = &mut self.groups[gi].provisioner;
        let dropped = provisioner.drop_leases_at_center(center);
        for lease in &dropped {
            self.platform.centers_mut()[center].revoke(lease.id);
        }
        if let Some(sink) = run.sink.as_mut() {
            let op = provisioner.operator.0;
            for lease in &dropped {
                sink.emit(&lease_release(run.record.tick, center, lease, op, cause));
            }
        }
        (dropped.len(), dropped.iter().map(|l| l.amounts.cpu).sum())
    }

    /// Charges one group's migration off `center` (after [`drain`]
    /// moved `leases` of its leases): the players pay the migration
    /// cost as unserved player-ticks, and the move opens an outage
    /// episode at `center` that closes once the group is whole again.
    ///
    /// [`drain`]: Self::drain
    fn charge_migration(&self, run: &mut RunState, gi: usize, center: usize, leases: usize) {
        let cost_ticks = self
            .scenario
            .as_ref()
            .map_or(0, |s| s.params().migration_cost_ticks);
        let cost = self.hot[gi].players * cost_ticks as f64;
        run.report.migration_player_ticks += cost;
        run.report.unserved_player_ticks += cost;
        run.report.migrations += 1;
        run.trigger.get_or_insert(FlightTrigger::Migration);
        run.open_outage(center);
        run.record_event(Event::Migration {
            tick: run.record.tick,
            group: gi as u64,
            center: center as u64,
            leases: leases as u64,
            cost,
        });
    }

    /// Per-group stage: score the allocation in force against the actual
    /// demand and (in dynamic mode) compute each group's next demand
    /// target. One serial loop in group-index order; each group touches
    /// only its own cold state and its slot in the contiguous hot array.
    fn predict(&mut self, run: &mut RunState) {
        let dynamic = self.mode == AllocationMode::Dynamic;
        let dropout = run.dropout;
        let start = Instant::now();
        for (group, hot) in self.groups.iter_mut().zip(self.hot.iter_mut()) {
            let players = hot.players;
            // Score the prediction made last tick against this tick's
            // observation, in the group's own accumulators.
            let prev = group.provisioner.last_prediction();
            if dynamic && prev.is_finite() {
                hot.abs_err_sum += (prev - players).abs();
                hot.actual_sum += players;
            }
            hot.demand = group.demand_model.demand(players);
            hot.alloc = group.provisioner.allocated();
            hot.short = (hot.alloc - hot.demand).min(&ResourceVector::ZERO);
            if dynamic {
                hot.target = if dropout {
                    // The schedule dropped the predictor this tick:
                    // last-value fallback, history stays warm.
                    group.provisioner.observe_and_target_fallback(players)
                } else {
                    group.provisioner.observe_and_target(players)
                };
            }
        }
        run.record.predict_ns = ns_since(start);
    }

    /// Ordered reduction (Eq. 2's min is per server group so one group's
    /// surplus never hides another's deficit): fold the hot array in
    /// group-index order, so float sums are fixed by the group order.
    /// Scored ticks also feed the metrics, the report series and the
    /// per-center usage integration.
    fn reduce(&mut self, run: &mut RunState) {
        let start = Instant::now();
        let t = run.record.tick as usize;
        let mut total_demand = ResourceVector::ZERO;
        let mut total_alloc = ResourceVector::ZERO;
        let mut shortfall = ResourceVector::ZERO;
        run.per_game.fill(Default::default());
        for (group, hot) in self.groups.iter().zip(&self.hot) {
            total_demand += hot.demand;
            total_alloc += hot.alloc;
            shortfall += hot.short;
            let entry = &mut run.per_game[group.game];
            entry.0 += hot.alloc;
            entry.1 += hot.demand;
            entry.2 += hot.short;
        }
        if t >= self.warmup {
            let now = SimTime(t as u64);
            // M of Eq. 2: one machine-equivalent per server group (a
            // group at full load is exactly one game server, Sec. V-A).
            let machines = self.groups.len() as f64;
            run.report
                .metrics
                .record(now, &total_alloc, &total_demand, &shortfall, machines);
            let games = run.report.per_game.iter_mut().zip(&run.per_game);
            for (gi, (game, (alloc, demand, short))) in games.enumerate() {
                game.metrics
                    .record(now, alloc, demand, short, run.game_machines[gi]);
            }
            run.report.demand_cpu_series.push(total_demand.cpu);
            run.report.alloc_cpu_series.push(total_alloc.cpu);
            for (center, acc) in self.platform.centers().iter().zip(run.usage.iter_mut()) {
                attribute_usage(center.lease_cpu(), &mut acc.0, &mut acc.1);
                acc.2 += center.free().cpu;
            }
        }
        let record = &mut run.record;
        record.demand_cpu = total_demand.cpu;
        record.alloc_cpu = total_alloc.cpu;
        record.shortfall_cpu = shortfall.cpu;
        if let Some(sink) = run.sink.as_mut() {
            sink.emit(&record.tick_event());
            // Per-center allocation snapshots for the analytics
            // timelines, sampled on a tick-count-derived stride (plus
            // the final tick) so suite-scale traces stay bounded: at
            // most ~96 sampled ticks per run regardless of scale,
            // derived from the configuration so it is jobs-independent.
            let center_tick_stride = (self.ticks / 96).max(1);
            if t.is_multiple_of(center_tick_stride) || t + 1 == self.ticks {
                for (ci, center) in self.platform.centers().iter().enumerate() {
                    sink.emit(&Event::CenterTick {
                        tick: t as u64,
                        center: ci as u64,
                        alloc_cpu: center.leases().iter().map(|l| l.amounts.cpu).sum(),
                        free_cpu: center.free().cpu,
                    });
                }
            }
        }
        run.record.reduce_ns = ns_since(start);
    }

    /// Serial stage: adjust allocations for the next tick. Dynamic mode
    /// settles every group; static mode settles only under faults or
    /// scenarios, to re-buy lost capacity.
    fn settle_stage(&mut self, run: &mut RunState) {
        let pass = if self.mode == AllocationMode::Dynamic {
            Settle::Dynamic
        } else if self.disturbed {
            Settle::Recover
        } else {
            return;
        };
        let start = Instant::now();
        self.settle(run, pass);
        run.record.settle_ns = ns_since(start);
        run.record.settled = true;
    }

    /// The one settle loop behind every [`Settle`] pass. Groups go in
    /// priority order — higher-priority games lease (and keep) capacity
    /// first. Matching contends on the shared centers, so this ordering
    /// IS the semantics and cannot fan out.
    fn settle(&mut self, run: &mut RunState, pass: Settle) {
        let t = run.record.tick;
        let now = SimTime(t);
        let by_priority = pass != Settle::Initial;
        for k in 0..self.groups.len() {
            let idx = if by_priority { self.order[k] } else { k };
            // `adjust` never touches the lost-capacity accumulator, so
            // this is also what the group has lost after the step.
            let lost = self.groups[idx].provisioner.lost_capacity();
            let recovering = !lost.is_negligible(1e-9);
            if pass == Settle::Recover && !recovering {
                continue;
            }
            let target = self.hot[idx].target;
            let provisioner = &mut self.groups[idx].provisioner;
            let out = provisioner.adjust(&mut self.platform, &mut run.match_stats, &target, now);
            run.record.skips += u64::from(out.skipped);
            run.record.walks += u64::from(!out.skipped);
            run.leases_granted += out.granted as u64;
            run.leases_released += out.released as u64;
            run.report.rejections.merge(&out.rejections);
            run.report.unmet_steps += u64::from(out.unmet);
            // Capacity is only ever lost to fault and scenario drops, so
            // undisturbed runs never take this branch.
            if recovering {
                if out.granted > 0 {
                    run.report.reprovisions += out.granted as u64;
                    run.trace(&Event::Reprovision {
                        tick: t,
                        operator: u64::from(provisioner.operator.0),
                        granted: out.granted as u64,
                        lost_cpu: lost.cpu,
                    });
                }
                // Whole again: stop attributing grants to fault
                // recovery.
                if !out.unmet && !out.deferred {
                    provisioner.clear_lost_capacity();
                }
            }
            run.emit_adjust(provisioner, &target, &out);
        }
        // Publish the stage's matcher tallies before anything downstream
        // of the settle stage can read the registry.
        run.match_stats.flush();
    }

    /// Unserved player-ticks: each group's players scaled by the
    /// fraction of its target the settle stage could not (re-)acquire.
    /// Routine prediction lag never shows up here (a met request zeroes
    /// the deficit), so a healthy run contributes nothing and an outage
    /// episode closes at the first tick the platform is whole again.
    fn account(&mut self, run: &mut RunState) {
        if !self.disturbed {
            return;
        }
        let t = run.record.tick;
        let mut tick_unserved = 0.0f64;
        for (gi, group) in self.groups.iter().enumerate() {
            let target = self.hot[gi].target;
            if target.cpu <= 1e-12 {
                continue;
            }
            let deficit = (target.cpu - group.provisioner.allocated().cpu).max(0.0);
            if deficit <= 1e-9 {
                continue;
            }
            let players = self.hot[gi].players;
            tick_unserved += players * (deficit / target.cpu).clamp(0.0, 1.0);
        }
        run.report.unserved_player_ticks += tick_unserved;
        if !run.open_outages.is_empty() && tick_unserved <= 1e-9 {
            for (center, start) in std::mem::take(&mut run.open_outages) {
                let down_ticks = t - start;
                run.report.recovery_ticks.push(down_ticks);
                run.trace(&Event::FaultRecovery {
                    tick: t,
                    center: center as u64,
                    down_ticks,
                });
            }
        }
    }

    /// Time-series, live tap and flight recorder, fed from the serial
    /// tail of the tick.
    fn publish(&mut self, run: &mut RunState) {
        let (record, trigger) = (run.record, run.trigger);
        let t = record.tick;
        if let Some(ts) = run.ts.as_mut() {
            ts.push(&record);
        }
        if let Some(cfg) = self.sinks.live.as_ref() {
            let done = t + 1 == self.ticks as u64;
            let due = t.is_multiple_of(cfg.interval()) || done;
            let throttled = !done
                && run
                    .last_live_write
                    .is_some_and(|at| at.elapsed() < MIN_LIVE_WRITE_GAP);
            if due && !throttled {
                let snap = mmog_obs::LiveSnapshot {
                    run: self.trace_label.clone(),
                    tick: t,
                    ticks_total: self.ticks as u64,
                    done,
                    semantic: mmog_obs::LiveSemantic {
                        demand_cpu: record.demand_cpu,
                        alloc_cpu: record.alloc_cpu,
                        shortfall_cpu: record.shortfall_cpu,
                        match_skip_rate: record.skip_rate(),
                        leases_held: self
                            .groups
                            .iter()
                            .map(|g| g.provisioner.held_leases().len() as u64)
                            .sum(),
                        fault_events: run.report.fault_events,
                        scenario_events: run.report.scenario_events,
                        centers_down: self
                            .platform
                            .centers()
                            .iter()
                            .filter(|c| c.is_down())
                            .count() as u64,
                        centers: self
                            .platform
                            .centers()
                            .iter()
                            .map(|c| mmog_obs::LiveCenter {
                                name: c.spec.name.clone(),
                                alloc_cpu: c.allocated().cpu,
                                capacity_cpu: c.effective_capacity().cpu,
                            })
                            .collect(),
                    },
                    timing: mmog_obs::LiveTiming {
                        tick_rate: (t + 1) as f64
                            / run.run_start_wall.elapsed().as_secs_f64().max(1e-9),
                        stage_p99_us: run.stages.p99_us(),
                    },
                };
                let write_start = Instant::now();
                if let Err(err) = mmog_obs::write_live(&cfg.path, &snap) {
                    eprintln!("warning: live snapshot write failed: {err}");
                }
                run.live_write_ns += ns_since(write_start);
                run.live_writes += 1;
                run.last_live_write = Some(Instant::now());
            }
        }
        // Stage latencies travel with the window so a dump shows both
        // what the engine decided and how long it took.
        run.flight_push(record.tick_event());
        run.flight_push(record.latency_event());
        if let Some(rec) = run.flight.as_mut() {
            // Trigger decisions, in fixed priority order: faults are
            // semantic (deterministic for a fixed schedule), the
            // deadline is wall-clock (opt-in via the config).
            let trigger = trigger.or_else(|| {
                rec.deadline_ns()
                    .is_some_and(|d| record.tick_ns > d)
                    .then_some(FlightTrigger::DeadlineOverrun)
            });
            if let Some(Err(err)) = trigger.map(|tr| rec.trigger(tr, t, &self.trace_label)) {
                eprintln!("warning: flight dump failed: {err}");
            }
        }
    }

    /// Run-level teardown: integrated usage, run counters, closing
    /// events, the observability plane submissions, and the report.
    fn finish(self, mut run: RunState) -> SimReport {
        run.report.center_usage = self
            .platform
            .centers()
            .iter()
            .zip(std::mem::take(&mut run.usage))
            .map(|(c, (sums, touched, free))| {
                // Ids ascend with the index, so both the map contents
                // and the total's summation order match the historical
                // `BTreeMap` accumulation exactly; an operator that
                // never leased here stays absent even if its (untouched)
                // slot is zero.
                let by_op: BTreeMap<u32, f64> = (0u32..)
                    .zip(sums)
                    .zip(touched)
                    .filter(|(_, t)| *t)
                    .map(|((op, sum), _)| (op, sum))
                    .collect();
                CenterUsage {
                    name: c.spec.name.clone(),
                    capacity_cpu: c.spec.capacity().cpu,
                    cpu_total: by_op.values().sum(),
                    cpu_by_operator: by_op,
                    cpu_free: free,
                }
            })
            .collect();
        let report = &mut run.report;
        report.unrecovered_outages = run.open_outages.len();
        mmog_obs::counter("sim.unmet_steps", Domain::Semantic).add(report.unmet_steps);
        mmog_obs::counter("sim.leases_granted", Domain::Semantic).add(run.leases_granted);
        mmog_obs::counter("sim.leases_released", Domain::Semantic).add(run.leases_released);
        // Fault counters register only on faulted runs, so an unfaulted
        // metrics summary stays byte-identical to the baseline.
        if self.faults.is_some() {
            mmog_obs::counter("faults.events", Domain::Semantic).add(report.fault_events);
            mmog_obs::counter("faults.leases_revoked", Domain::Semantic).add(report.leases_revoked);
            mmog_obs::counter("faults.reprovisions", Domain::Semantic).add(report.reprovisions);
            mmog_obs::counter("faults.outages_recovered", Domain::Semantic)
                .add(report.recovery_ticks.len() as u64);
            mmog_obs::counter("faults.outages_unrecovered", Domain::Semantic)
                .add(report.unrecovered_outages as u64);
        }
        // Scenario counters likewise register only on scenario runs.
        if self.scenario.is_some() {
            mmog_obs::counter("scenario.events", Domain::Semantic).add(report.scenario_events);
            mmog_obs::counter("scenario.migrations", Domain::Semantic).add(report.migrations);
        }
        // Per-group online prediction error (the paper's metric, scored
        // over the whole run); both the histogram records and the event
        // values are per-group deterministic quantities.
        let err_hist = mmog_obs::histogram(
            "sim.prediction_error_pct",
            Domain::Semantic,
            &[1.0, 2.0, 5.0, 10.0, 20.0, 50.0],
        );
        for (gi, (group, hot)) in self.groups.iter().zip(&self.hot).enumerate() {
            if hot.actual_sum <= 0.0 {
                continue;
            }
            let error_pct = 100.0 * hot.abs_err_sum / hot.actual_sum;
            err_hist.record(error_pct);
            if let Some(sink) = run.sink.as_mut() {
                sink.emit(&Event::PredictionGroup {
                    group: gi as u64,
                    operator: u64::from(group.provisioner.operator.0),
                    game: &self.game_names[group.game],
                    error_pct,
                });
            }
        }
        if let (Some(mut sink), Some(trace)) = (run.sink.take(), &self.sinks.trace) {
            // Integrated per-center usage: the bulk-waste attribution of
            // Figures 13–14, one event per center in platform order.
            for u in &report.center_usage {
                sink.emit(&Event::CenterUsage {
                    name: &u.name,
                    capacity_cpu: u.capacity_cpu,
                    cpu_unit_ticks: u.cpu_total,
                    cpu_free_unit_ticks: u.cpu_free,
                });
            }
            if self.faults.is_some() {
                sink.emit(&Event::FaultSummary {
                    events: report.fault_events,
                    leases_revoked: report.leases_revoked,
                    reprovisions: report.reprovisions,
                    unserved_player_ticks: report.unserved_player_ticks,
                    recovered: report.recovery_ticks.len() as u64,
                    unrecovered: report.unrecovered_outages as u64,
                });
            }
            // Lifecycle closure: every lease still held at run end gets
            // its terminal event (groups in index order), so the
            // analyzer always reconstructs 100% of granted leases.
            let (end_tick, cause) = (self.ticks.saturating_sub(1) as u64, ReleaseCause::RunEnd);
            for group in &self.groups {
                let op = group.provisioner.operator.0;
                for held in group.provisioner.held_leases() {
                    sink.emit(&lease_release(
                        end_tick,
                        held.center,
                        &held.lease,
                        op,
                        cause,
                    ));
                }
            }
            sink.emit(&Event::RunEnd {
                ticks: self.ticks as u64,
                unmet_steps: report.unmet_steps,
                leases_granted: run.leases_granted,
                leases_released: run.leases_released,
            });
            sink.submit(trace, &self.trace_label);
        }
        // Time-series submission + self-cost accounting (timing domain:
        // sample counts depend on whether the planes are enabled, never
        // on the run's semantics).
        if let (Some(ts), Some(out)) = (run.ts.take(), &self.sinks.ts) {
            out.submit(&self.trace_label, ts.export().to_json());
            // Eight series, one sample each per tick.
            let samples = 8 * self.ticks as u64;
            mmog_obs::counter("obs.self.ts_samples", Domain::Timing).add(samples);
        }
        if self.sinks.live.is_some() {
            mmog_obs::counter("obs.self.live_writes", Domain::Timing).add(run.live_writes);
            mmog_obs::counter("obs.self.live_write_ns", Domain::Timing).add(run.live_write_ns);
        }
        // Flight recorder teardown: the end-of-run explicit dump (when
        // `--flight-dump` asked for one), the recorder's own cost
        // counters (timing domain — the registration must not perturb
        // semantic summaries), and the dump report for harnesses.
        report.flight_dump = run.flight.take().and_then(|mut rec| {
            if let Err(err) = rec.finish(self.ticks.saturating_sub(1) as u64, &self.trace_label) {
                eprintln!("warning: flight dump failed: {err}");
            }
            mmog_obs::counter("obs.self.flight_pushes", Domain::Timing).add(rec.pushed());
            mmog_obs::counter("obs.self.flight_dropped", Domain::Timing).add(rec.dropped());
            mmog_obs::counter("obs.self.flight_suppressed", Domain::Timing).add(rec.suppressed());
            mmog_obs::counter("obs.self.flight_dumps", Domain::Timing)
                .add(u64::from(rec.dump_info().is_some()));
            rec.into_dump_info().map(|info| FlightDumpReport {
                trigger: info.trigger.to_string(),
                trigger_tick: info.trigger_tick,
                tick_from: info.tick_from,
                tick_to: info.tick_to,
                records: info.records,
                path: info.path.display().to_string(),
            })
        });
        run.report
    }
}

impl SimReport {
    /// Shares of total allocated CPU unit-ticks per distance class
    /// between the request origin and the granting center — the bars of
    /// Figure 13. `centers` must be the configuration's center list (for
    /// locations). Returns `(class label, share in percent)`.
    #[must_use]
    pub fn allocation_by_distance_class(&self, centers: &[DataCenter]) -> Vec<(&'static str, f64)> {
        use mmog_util::geo::DistanceClass;
        let mut buckets = [0.0f64; 5];
        let mut total = 0.0;
        for (usage, center) in self.center_usage.iter().zip(centers) {
            for (op, units) in &usage.cpu_by_operator {
                let Some((_, origin)) = self.operator_origins.get(op) else {
                    continue;
                };
                let d = center.spec.location.distance_km(origin);
                let class = DistanceClass::ALL
                    .iter()
                    .position(|c| c.admits(d))
                    .unwrap_or(DistanceClass::ALL.len() - 1);
                buckets[class] += units;
                total += units;
            }
        }
        DistanceClass::ALL
            .iter()
            .zip(buckets)
            .map(|(c, b)| (c.label(), if total > 0.0 { 100.0 * b / total } else { 0.0 }))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmog_datacenter::locations::table3_hp12;
    use mmog_util::time::TICKS_PER_DAY;
    use mmog_workload::runescape::{generate, RuneScapeConfig};

    fn small_trace(days: u64, seed: u64) -> GameTrace {
        let mut cfg = RuneScapeConfig::paper_default(days, seed);
        cfg.regions.truncate(2);
        cfg.regions[0].groups = 6;
        cfg.regions[1].groups = 4;
        cfg.outage_prob_per_day = 0.0;
        generate(&cfg)
    }

    fn base_config(mode: AllocationMode, predictor: PredictorKind) -> SimulationConfig {
        SimulationConfig {
            centers: table3_hp12(),
            games: vec![GameSpec {
                name: "game".into(),
                operator_base: 0,
                update_model: UpdateModel::Quadratic,
                tolerance: DistanceClass::VeryFar,
                headroom: 1.0,
                predictor,
                workload: small_trace(2, 5).into(),
                static_peak_players: 2100.0, // capacity x the 1.05 overfull clamp
                priority: 0,
            }],
            mode,
            ticks: None,
            warmup_ticks: 30,
            train_ticks: 0,
            master_seed: 5,
            faults: None,
            scenario: None,
            sinks: Sinks::default(),
        }
    }

    #[test]
    fn dynamic_run_produces_full_report() {
        let report = Simulation::new(base_config(
            AllocationMode::Dynamic,
            PredictorKind::LastValue,
        ))
        .run();
        assert_eq!(report.ticks, 2 * TICKS_PER_DAY as usize);
        assert_eq!(
            report.metrics.samples(),
            (report.ticks - 30) as u64,
            "warm-up excluded"
        );
        assert_eq!(report.center_usage.len(), 17);
    }

    #[test]
    fn dynamic_tracks_demand_with_modest_over_allocation() {
        let report = Simulation::new(base_config(
            AllocationMode::Dynamic,
            PredictorKind::LastValue,
        ))
        .run();
        use mmog_datacenter::resource::ResourceType;
        let over = report.metrics.avg_over(ResourceType::Cpu);
        assert!(
            over > 0.0,
            "bulk rounding guarantees some over-allocation: {over}"
        );
        assert!(over < 150.0, "dynamic CPU over-allocation too high: {over}");
        // Under-allocation should be small in magnitude.
        let under = report.metrics.avg_under(ResourceType::Cpu);
        assert!(under <= 0.0);
        assert!(under > -5.0, "under-allocation {under}");
    }

    #[test]
    fn static_over_allocates_much_more_than_dynamic() {
        // The headline claim: "static resource provisioning can be on
        // average from five up to ten times more inefficient".
        use mmog_datacenter::resource::ResourceType;
        let dynamic = Simulation::new(base_config(
            AllocationMode::Dynamic,
            PredictorKind::LastValue,
        ))
        .run();
        let static_ = Simulation::new(base_config(
            AllocationMode::Static,
            PredictorKind::LastValue,
        ))
        .run();
        let od = dynamic.metrics.avg_over(ResourceType::Cpu);
        let os = static_.metrics.avg_over(ResourceType::Cpu);
        assert!(os > 2.0 * od, "static {os}% should dwarf dynamic {od}%");
    }

    #[test]
    fn static_never_under_allocates() {
        use mmog_datacenter::resource::ResourceType;
        let report = Simulation::new(base_config(
            AllocationMode::Static,
            PredictorKind::LastValue,
        ))
        .run();
        for r in ResourceType::ALL {
            assert!(
                report.metrics.avg_under(r).abs() < 1e-9,
                "{r}: {}",
                report.metrics.avg_under(r)
            );
        }
        assert_eq!(report.metrics.events(), 0);
    }

    #[test]
    fn ticks_clamped_to_trace_length() {
        let mut cfg = base_config(AllocationMode::Dynamic, PredictorKind::LastValue);
        cfg.ticks = Some(10_000_000);
        let report = Simulation::new(cfg).run();
        assert_eq!(report.ticks, 2 * TICKS_PER_DAY as usize);
        let mut cfg = base_config(AllocationMode::Dynamic, PredictorKind::LastValue);
        cfg.ticks = Some(100);
        let report = Simulation::new(cfg).run();
        assert_eq!(report.ticks, 100);
    }

    #[test]
    fn usage_attribution_sums_to_allocation() {
        let report = Simulation::new(base_config(
            AllocationMode::Dynamic,
            PredictorKind::LastValue,
        ))
        .run();
        // The integrated per-operator usage must equal the integrated
        // allocation series.
        let total_usage: f64 = report.center_usage.iter().map(|u| u.cpu_total).sum();
        let total_alloc: f64 = report.alloc_cpu_series.sum();
        assert!(
            (total_usage - total_alloc).abs() < 1e-6 * total_alloc.max(1.0),
            "usage {total_usage} vs alloc {total_alloc}"
        );
    }

    #[test]
    fn distance_class_shares_sum_to_100() {
        let cfg = base_config(AllocationMode::Dynamic, PredictorKind::LastValue);
        let centers_copy = table3_hp12();
        let report = Simulation::new(cfg).run();
        let shares = report.allocation_by_distance_class(&centers_copy);
        assert_eq!(shares.len(), 5);
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((total - 100.0).abs() < 1e-6, "shares sum to {total}");
    }

    #[test]
    fn same_location_tolerance_limits_placement() {
        let mut cfg = base_config(AllocationMode::Dynamic, PredictorKind::LastValue);
        cfg.games[0].tolerance = DistanceClass::SameLocation;
        let centers_copy = table3_hp12();
        let report = Simulation::new(cfg).run();
        let shares = report.allocation_by_distance_class(&centers_copy);
        // Everything allocated must be in the SameLocation bucket.
        assert!(shares[0].1 > 99.9 || report.alloc_cpu_series.sum() == 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one server group")]
    fn empty_simulation_rejected() {
        let mut cfg = base_config(AllocationMode::Dynamic, PredictorKind::LastValue);
        cfg.games.clear();
        let _ = Simulation::new(cfg);
    }

    #[test]
    fn per_game_metrics_cover_each_game() {
        let mut cfg = base_config(AllocationMode::Dynamic, PredictorKind::LastValue);
        let second = GameSpec {
            name: "second".into(),
            operator_base: 100,
            update_model: UpdateModel::Linear,
            ..cfg.games[0].clone()
        };
        cfg.games.push(second);
        let report = Simulation::new(cfg).run();
        assert_eq!(report.per_game.len(), 2);
        assert_eq!(report.per_game[0].name, "game");
        assert_eq!(report.per_game[1].name, "second");
        for gm in &report.per_game {
            assert_eq!(
                gm.metrics.samples(),
                report.metrics.samples(),
                "{}",
                gm.name
            );
        }
        // The aggregate over-allocation sits between the per-game ones
        // (it is a demand-weighted combination).
        use mmog_datacenter::resource::ResourceType;
        let (a, b) = (
            report.per_game[0].metrics.avg_over(ResourceType::Cpu),
            report.per_game[1].metrics.avg_over(ResourceType::Cpu),
        );
        let total = report.metrics.avg_over(ResourceType::Cpu);
        assert!(
            total >= a.min(b) - 1.0 && total <= a.max(b) + 1.0,
            "{a} {total} {b}"
        );
    }

    #[test]
    fn streaming_workload_matches_materialized_report() {
        // The tentpole contract: a game whose workload is the streaming
        // generator must produce the same report, to the last bit, as
        // the same configuration materialized up front — including with
        // predictor training on (the stream serves the train prefix).
        let mut rs = RuneScapeConfig::paper_default(1, 5);
        rs.regions.truncate(2);
        rs.regions[0].groups = 6;
        rs.regions[1].groups = 4;
        let mut materialized = base_config(AllocationMode::Dynamic, PredictorKind::Neural);
        materialized.games[0].workload = generate(&rs).into();
        materialized.train_ticks = 96;
        let mut streaming = base_config(AllocationMode::Dynamic, PredictorKind::Neural);
        streaming.games[0].workload = rs.into();
        streaming.train_ticks = 96;
        let a = Simulation::new(materialized).run();
        let b = Simulation::new(streaming).run();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// Index of the most-used center in a baseline run — the victim
    /// whose outage is guaranteed to revoke leases.
    fn busiest_center(mode: AllocationMode) -> usize {
        let report = Simulation::new(base_config(mode, PredictorKind::LastValue)).run();
        report
            .center_usage
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.cpu_total.total_cmp(&b.cpu_total))
            .map(|(i, _)| i)
            .expect("at least one center")
    }

    #[test]
    fn outage_recovers_under_dynamic_provisioning() {
        use mmog_faults::{FaultEvent, FaultKind};
        // The busiest center dies at tick 100 and comes back at tick
        // 160. Dynamic provisioning must re-acquire the lost capacity
        // from the surviving centers and drive unserved player-ticks
        // back to zero.
        let victim = busiest_center(AllocationMode::Dynamic);
        let mut cfg = base_config(AllocationMode::Dynamic, PredictorKind::LastValue);
        cfg.faults = Some(FaultSchedule::from_events(
            "test-outage",
            vec![
                FaultEvent {
                    tick: 100,
                    center: victim,
                    kind: FaultKind::CenterDown,
                },
                FaultEvent {
                    tick: 160,
                    center: victim,
                    kind: FaultKind::CenterUp,
                },
            ],
        ));
        let report = Simulation::new(cfg).run();
        assert_eq!(report.fault_events, 2);
        assert!(report.leases_revoked > 0, "the busiest center held leases");
        assert!(report.reprovisions > 0, "lost capacity was re-acquired");
        assert_eq!(
            report.unrecovered_outages, 0,
            "dynamic provisioning must heal the outage"
        );
        assert_eq!(report.recovery_ticks.len(), 1);
        assert!(
            report.recovery_ticks[0] < 30,
            "recovery took {} ticks",
            report.recovery_ticks[0]
        );
    }

    #[test]
    fn empty_fault_schedule_matches_baseline_report() {
        // Faults = Some(empty) exercises the fault plumbing (retry
        // backoff on, accounting live) without any event — the
        // scored metrics must equal the unfaulted run's exactly.
        let baseline = Simulation::new(base_config(
            AllocationMode::Dynamic,
            PredictorKind::LastValue,
        ))
        .run();
        let mut cfg = base_config(AllocationMode::Dynamic, PredictorKind::LastValue);
        cfg.faults = Some(FaultSchedule::from_events("empty", vec![]));
        let faulted = Simulation::new(cfg).run();
        use mmog_datacenter::resource::ResourceType;
        for r in ResourceType::ALL {
            assert_eq!(baseline.metrics.avg_over(r), faulted.metrics.avg_over(r));
            assert_eq!(baseline.metrics.avg_under(r), faulted.metrics.avg_under(r));
        }
        assert_eq!(baseline.unmet_steps, faulted.unmet_steps);
        assert_eq!(faulted.fault_events, 0);
        assert_eq!(faulted.leases_revoked, 0);
        assert_eq!(faulted.unserved_player_ticks, 0.0);
        assert_eq!(baseline.rejections, faulted.rejections);
    }

    #[test]
    fn static_reprovisions_after_outage_only_under_faults() {
        use mmog_faults::{FaultEvent, FaultKind};
        let victim = busiest_center(AllocationMode::Static);
        let mut cfg = base_config(AllocationMode::Static, PredictorKind::LastValue);
        cfg.faults = Some(FaultSchedule::from_events(
            "static-outage",
            vec![FaultEvent {
                tick: 100,
                center: victim,
                kind: FaultKind::CenterDown,
            }],
        ));
        let report = Simulation::new(cfg).run();
        assert!(report.leases_revoked > 0);
        assert!(
            report.reprovisions > 0,
            "static operators re-buy their fixed allocation"
        );
        assert_eq!(report.unrecovered_outages, 0);
    }

    #[test]
    fn empty_scenario_timeline_matches_baseline_report() {
        // Scenario = Some(empty) exercises the scenario plumbing (retry
        // backoff on, the federation's nominal topology under every
        // matcher call) without any event — the scored metrics must
        // equal the scenario-free run's exactly.
        use mmog_faults::ScenarioTimeline;
        let baseline = Simulation::new(base_config(
            AllocationMode::Dynamic,
            PredictorKind::LastValue,
        ))
        .run();
        let mut cfg = base_config(AllocationMode::Dynamic, PredictorKind::LastValue);
        cfg.scenario = Some(ScenarioTimeline::from_events("empty", vec![]));
        let scenario = Simulation::new(cfg).run();
        use mmog_datacenter::resource::ResourceType;
        for r in ResourceType::ALL {
            assert_eq!(baseline.metrics.avg_over(r), scenario.metrics.avg_over(r));
            assert_eq!(baseline.metrics.avg_under(r), scenario.metrics.avg_under(r));
        }
        assert_eq!(baseline.unmet_steps, scenario.unmet_steps);
        assert_eq!(baseline.rejections, scenario.rejections);
        assert_eq!(scenario.scenario_events, 0);
        assert_eq!(scenario.migrations, 0);
        assert_eq!(scenario.migration_player_ticks, 0.0);
        assert_eq!(scenario.unserved_player_ticks, 0.0);
    }

    #[test]
    fn migration_moves_leases_and_charges_cost() {
        use mmog_faults::{ScenarioEvent, ScenarioEventKind, ScenarioParams, ScenarioTimeline};
        // Group 0 migrates at tick 100 (pick 0 resolves to group 0):
        // its leases are dropped center-side and player-visible cost is
        // charged into both migration and unserved accounting.
        let mut cfg = base_config(AllocationMode::Dynamic, PredictorKind::LastValue);
        cfg.scenario = Some(
            ScenarioTimeline::from_events(
                "one-migration",
                vec![ScenarioEvent {
                    tick: 100,
                    kind: ScenarioEventKind::Migrate { pick: 0 },
                }],
            )
            .with_params(ScenarioParams {
                migration_cost_ticks: 3,
            }),
        );
        let report = Simulation::new(cfg).run();
        assert_eq!(report.scenario_events, 1);
        assert_eq!(report.migrations, 1);
        assert!(
            report.migration_player_ticks > 0.0,
            "a live group pays to move"
        );
        assert!(report.unserved_player_ticks >= report.migration_player_ticks);
        assert_eq!(
            report.unrecovered_outages, 0,
            "dynamic provisioning re-acquires the moved capacity"
        );
        assert!(!report.recovery_ticks.is_empty());
    }

    #[test]
    fn partition_heals_and_run_recovers() {
        use mmog_faults::{ScenarioEvent, ScenarioEventKind, ScenarioTimeline};
        // Split the platform for 60 ticks; the run must complete with
        // both events applied and no lingering topology effects (the
        // heal restores full reachability).
        let mut cfg = base_config(AllocationMode::Dynamic, PredictorKind::LastValue);
        cfg.scenario = Some(ScenarioTimeline::from_events(
            "partition-heal",
            vec![
                ScenarioEvent {
                    tick: 100,
                    kind: ScenarioEventKind::Partition { mask: 0b101 },
                },
                ScenarioEvent {
                    tick: 160,
                    kind: ScenarioEventKind::Heal,
                },
            ],
        ));
        let report = Simulation::new(cfg).run();
        assert_eq!(report.scenario_events, 2);
        assert_eq!(report.migrations, 0);
        assert_eq!(report.migration_player_ticks, 0.0);
    }

    #[test]
    fn flash_crowd_inflates_demand() {
        use mmog_faults::{ScenarioEvent, ScenarioEventKind, ScenarioTimeline};
        let baseline = Simulation::new(base_config(
            AllocationMode::Dynamic,
            PredictorKind::LastValue,
        ))
        .run();
        let mut cfg = base_config(AllocationMode::Dynamic, PredictorKind::LastValue);
        cfg.scenario = Some(ScenarioTimeline::from_events(
            "flash",
            vec![
                ScenarioEvent {
                    tick: 200,
                    kind: ScenarioEventKind::FlashBegin {
                        pick: 0,
                        factor: 2.0,
                    },
                },
                ScenarioEvent {
                    tick: 500,
                    kind: ScenarioEventKind::FlashEnd { pick: 0 },
                },
            ],
        ));
        let report = Simulation::new(cfg).run();
        assert!(
            report.demand_cpu_series.sum() > baseline.demand_cpu_series.sum(),
            "a 2x flash crowd must raise integrated demand"
        );
        assert_eq!(report.scenario_events, 2);
    }

    #[test]
    fn region_failover_drains_every_group_at_the_center() {
        use mmog_faults::{ScenarioEvent, ScenarioEventKind, ScenarioTimeline};
        let victim = busiest_center(AllocationMode::Dynamic);
        let mut cfg = base_config(AllocationMode::Dynamic, PredictorKind::LastValue);
        cfg.scenario = Some(ScenarioTimeline::from_events(
            "failover",
            vec![ScenarioEvent {
                tick: 100,
                kind: ScenarioEventKind::RegionFailover {
                    center: victim as u32,
                },
            }],
        ));
        let report = Simulation::new(cfg).run();
        assert!(
            report.migrations > 0,
            "the busiest center hosted at least one group"
        );
        assert!(report.migration_player_ticks > 0.0);
        assert_eq!(report.unrecovered_outages, 0);
    }

    /// An outage at the busiest center (ticks 100–160) composed with a
    /// partition (ticks 120–200).
    fn faulted_scenario_config() -> SimulationConfig {
        use mmog_faults::{
            FaultEvent, FaultKind, ScenarioEvent, ScenarioEventKind, ScenarioTimeline,
        };
        let victim = busiest_center(AllocationMode::Dynamic);
        let mut cfg = base_config(AllocationMode::Dynamic, PredictorKind::LastValue);
        cfg.faults = Some(FaultSchedule::from_events(
            "outage",
            vec![
                FaultEvent {
                    tick: 100,
                    center: victim,
                    kind: FaultKind::CenterDown,
                },
                FaultEvent {
                    tick: 160,
                    center: victim,
                    kind: FaultKind::CenterUp,
                },
            ],
        ));
        cfg.scenario = Some(ScenarioTimeline::from_events(
            "partition",
            vec![
                ScenarioEvent {
                    tick: 120,
                    kind: ScenarioEventKind::Partition { mask: 0b11 },
                },
                ScenarioEvent {
                    tick: 200,
                    kind: ScenarioEventKind::Heal,
                },
            ],
        ));
        cfg
    }

    #[test]
    fn scenario_composes_with_fault_schedule() {
        let report = Simulation::new(faulted_scenario_config()).run();
        assert_eq!(report.fault_events, 2);
        assert_eq!(report.scenario_events, 2);
        assert_eq!(report.unrecovered_outages, 0, "both planes heal");
    }

    #[test]
    fn every_dynamic_group_tick_is_skipped_or_walked() {
        // Every group settles exactly once per tick, so the semantic
        // skip and walk counters split groups × ticks between them,
        // on a quiet platform and through outages and partitions.
        let quiet = base_config(AllocationMode::Dynamic, PredictorKind::LastValue);
        for cfg in [quiet, faulted_scenario_config()] {
            let groups = cfg.games[0].workload.group_count() as u64;
            let (ticks, summary) = mmog_par::scoped(1, &mmog_obs::Registry::new(), || {
                let ticks = Simulation::new(cfg).run().ticks as u64;
                (ticks, mmog_obs::Summary::capture())
            });
            let counter = |name| summary.semantic.counters.get(name).copied();
            let (skips, full) = (counter("sim.match.skips"), counter("sim.match.full"));
            assert!(skips > Some(0) && full > Some(0), "{skips:?} {full:?}");
            assert_eq!(skips.zip(full).map(|(s, f)| s + f), Some(groups * ticks));
        }
    }

    /// Steps `cfg` one tick at a time and checks lease conservation
    /// after every tick: each center's ledger holds exactly the leases
    /// the groups hold there, and each group's allocation is the sum of
    /// its held leases.
    fn assert_leases_conserved(cfg: SimulationConfig) {
        let mut sim = Simulation::new(cfg);
        let mut run = sim.start();
        for t in 0..sim.ticks {
            sim.step(&mut run, t);
            for (ci, center) in sim.platform.centers().iter().enumerate() {
                let mut ledger: Vec<u64> = center.leases().iter().map(|l| l.id.0).collect();
                let mut held: Vec<u64> = sim
                    .groups
                    .iter()
                    .flat_map(|g| g.provisioner.held_leases())
                    .filter(|h| h.center == ci)
                    .map(|h| h.lease.id.0)
                    .collect();
                ledger.sort_unstable();
                held.sort_unstable();
                assert_eq!(ledger, held, "center {ci} at tick {t}");
            }
            for (gi, group) in sim.groups.iter().enumerate() {
                let held = group.provisioner.held_leases();
                let sum: f64 = held.map(|h| h.lease.amounts.cpu).sum();
                let alloc = group.provisioner.allocated().cpu;
                assert!(
                    (alloc - sum).abs() <= 1e-6 * alloc.abs().max(sum.abs()),
                    "group {gi} at tick {t}: allocated {alloc} vs held {sum}"
                );
            }
        }
        let report = sim.finish(run);
        assert_eq!(report.ticks, 2 * TICKS_PER_DAY as usize);
    }

    #[test]
    fn leases_are_conserved_every_tick() {
        assert_leases_conserved(faulted_scenario_config());
        // Migration, failover and spontaneous revocation drain leases
        // through the other drop paths.
        use mmog_faults::{FaultEvent, FaultKind, ScenarioEvent, ScenarioEventKind};
        let victim = busiest_center(AllocationMode::Dynamic);
        let mut cfg = faulted_scenario_config();
        cfg.faults = Some(FaultSchedule::from_events(
            "revocations",
            (0..8)
                .map(|i| FaultEvent {
                    tick: 50 + 40 * i,
                    center: victim,
                    kind: FaultKind::LeaseRevoked,
                })
                .collect(),
        ));
        cfg.scenario = Some(mmog_faults::ScenarioTimeline::from_events(
            "moves",
            vec![
                ScenarioEvent {
                    tick: 90,
                    kind: ScenarioEventKind::Migrate { pick: 3 },
                },
                ScenarioEvent {
                    tick: 140,
                    kind: ScenarioEventKind::RegionFailover {
                        center: victim as u32,
                    },
                },
            ],
        ));
        assert_leases_conserved(cfg);
    }

    #[test]
    fn out_of_range_effects_are_not_applied_counted_or_triggered() {
        use mmog_faults::{FaultEvent, FaultKind, ScenarioEvent, ScenarioEventKind};
        let empty = || {
            let mut cfg = base_config(AllocationMode::Dynamic, PredictorKind::LastValue);
            cfg.faults = Some(FaultSchedule::from_events("empty", vec![]));
            cfg.scenario = Some(ScenarioTimeline::from_events("empty", vec![]));
            cfg
        };
        // Every event names a center the platform does not have.
        let bogus = || {
            let mut cfg = empty();
            let n = cfg.centers.len() as u32;
            cfg.faults = Some(FaultSchedule::from_events(
                "bogus",
                vec![FaultEvent {
                    tick: 100,
                    center: 99,
                    kind: FaultKind::CenterDown,
                }],
            ));
            let at = |tick, kind| ScenarioEvent { tick, kind };
            cfg.scenario = Some(ScenarioTimeline::from_events(
                "bogus",
                vec![
                    at(100, ScenarioEventKind::RegionFailover { center: n }),
                    at(
                        100,
                        ScenarioEventKind::LinkDegrade {
                            a: 0,
                            b: n,
                            factor: 3.0,
                        },
                    ),
                    at(100, ScenarioEventKind::LinkRestore { a: n + 5, b: 1 }),
                ],
            ));
            cfg
        };
        assert_eq!(
            format!("{:?}", Simulation::new(bogus()).run()),
            format!("{:?}", Simulation::new(empty()).run())
        );
        // Stepped with a trace sink attached, the bogus run traces
        // exactly what the empty run traces and raises no flight
        // trigger, yet consumes all four events.
        let trace = |cfg| {
            let mut sim = Simulation::new(cfg);
            let mut run = sim.start();
            run.sink = Some(EventSink::new());
            for t in 0..sim.ticks {
                sim.step(&mut run, t);
                assert_eq!(run.trigger, None, "tick {t}");
            }
            let sink = run.sink.expect("sink attached above");
            (
                sink.lines().collect::<Vec<_>>().join("\n"),
                run.effect_cursor,
            )
        };
        let (bogus_trace, consumed) = trace(bogus());
        assert_eq!(consumed, 4, "the events were consumed");
        assert!(bogus_trace == trace(empty()).0, "bogus events were traced");
    }

    #[test]
    fn concurrent_runs_trace_into_their_own_sinks() {
        // Each run renders its own collector; `dest` is never written.
        let traced = |mode| {
            let trace = mmog_obs::Collector::trace("unused.jsonl");
            let mut cfg = base_config(mode, PredictorKind::LastValue);
            cfg.sinks.trace = Some(trace.clone());
            let _ = Simulation::new(cfg).run();
            trace.render().remove(0).1
        };
        let modes = [AllocationMode::Dynamic, AllocationMode::Static];
        let alone = modes.map(traced);
        let together = std::thread::scope(|scope| {
            modes
                .map(|mode| scope.spawn(move || traced(mode)))
                .map(|run| run.join().expect("run thread"))
        });
        assert!(alone[0].contains("\"kind\":\"run_start\",\"mode\":\"dynamic\""));
        assert!(alone[1].contains("\"kind\":\"run_start\",\"mode\":\"static\""));
        assert_eq!(
            alone, together,
            "each run traces exactly what it traces alone"
        );
    }

    #[test]
    fn priority_orders_request_processing_under_contention() {
        // Two identical games on a platform that can only hold roughly
        // one of them: the prioritized game must come out with the
        // smaller under-allocation.
        let run = |priorities: [i32; 2]| {
            let mut cfg = base_config(AllocationMode::Dynamic, PredictorKind::LastValue);
            let mut second = GameSpec {
                name: "low".into(),
                operator_base: 100,
                ..cfg.games[0].clone()
            };
            cfg.games[0].name = "high".into();
            cfg.games[0].priority = priorities[0];
            second.priority = priorities[1];
            cfg.games.push(second);
            // Shrink the platform until requests contend: ~10 CPU units
            // against a combined mean demand of ~15.
            let mut budget = 8u32;
            for c in &mut cfg.centers {
                let m = (c.spec.machines / 8).min(budget);
                c.spec.machines = m;
                budget -= m;
            }
            cfg.centers.retain(|c| c.spec.machines > 0);
            Simulation::new(cfg).run()
        };
        use mmog_datacenter::resource::ResourceType;
        let report = run([0, 5]);
        let high = report.per_game[0].metrics.avg_under(ResourceType::Cpu);
        let low = report.per_game[1].metrics.avg_under(ResourceType::Cpu);
        assert!(report.unmet_steps > 0, "platform must actually contend");
        assert!(
            high > low,
            "prioritized game should be under-allocated less: high {high} vs low {low}"
        );
    }
}
