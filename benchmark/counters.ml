(* Work counts the engine keeps (System.stats and each rule's detector),
   read from outside before and after a phase so the per-layer ratios cover
   exactly that phase. *)

module System = Sentinel.System

type t = {
  conditions : int;
  actions : int;
  probed : int;
  offered : int;
  coalesced : int;
  fed : int;
  signalled : int;
  seals : int;
  fsyncs : int;
  wal_bytes : int;
}

let zero =
  {
    conditions = 0;
    actions = 0;
    probed = 0;
    offered = 0;
    coalesced = 0;
    fed = 0;
    signalled = 0;
    seals = 0;
    fsyncs = 0;
    wal_bytes = 0;
  }

let map2 f a b =
  {
    conditions = f a.conditions b.conditions;
    actions = f a.actions b.actions;
    probed = f a.probed b.probed;
    offered = f a.offered b.offered;
    coalesced = f a.coalesced b.coalesced;
    fed = f a.fed b.fed;
    signalled = f a.signalled b.signalled;
    seals = f a.seals b.seals;
    fsyncs = f a.fsyncs b.fsyncs;
    wal_bytes = f a.wal_bytes b.wal_bytes;
  }

let add = map2 ( + )
let sub = map2 ( - )

(* Detector counts of one rule, e.g. just before the rule is deleted. *)
let of_rule sys oid =
  let d = (System.rule_info sys oid).Sentinel.Rule.detector in
  { zero with fed = Events.Detector.fed d; signalled = Events.Detector.signalled d }

let of_system sys =
  let s = System.stats sys in
  List.fold_left
    (fun acc oid -> add acc (of_rule sys oid))
    {
      zero with
      conditions = s.System.conditions_checked;
      actions = s.System.actions_executed;
      probed = s.System.candidates_probed;
      offered = s.System.leaves_offered;
      coalesced = s.System.coalesced_probes;
      seals = s.System.group_commit_batches;
      fsyncs = s.System.wal_fsyncs;
      wal_bytes = s.System.wal_bytes;
    }
    (System.rules sys)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* The rule, route and detector metrics for [c] counted over [events]. *)
let engine_metrics c ~events =
  [
    ("rule.conditions_per_event", ratio c.conditions events);
    ("rule.actions_per_event", ratio c.actions events);
    ("route.candidates_per_event", ratio c.probed events);
    ("route.offered_per_candidate", ratio c.offered c.probed);
    ("route.coalesced_per_event", ratio c.coalesced events);
    ("detector.fed_per_event", ratio c.fed events);
    ("detector.signalled_per_fed", ratio c.signalled c.fed);
  ]

(* The WAL metrics for [c] counted over [events] sent in [flushes]. *)
let wal_metrics c ~events ~flushes =
  [
    ("wal.seals_per_flush", ratio c.seals flushes);
    ("wal.fsyncs_per_event", ratio c.fsyncs events);
    ("wal.bytes_per_event", ratio c.wal_bytes events);
  ]
