open Import

(** Composite-event detection.

    A detector is the runtime behaviour of an event object: primitive
    occurrences are fed in (the paper's [Notify] on event objects) and the
    detector signals each {e instance} of the composite event, carrying the
    constituent occurrences and their parameters (the paper's [Record]).

    One detector instance serves one event expression under one parameter
    context; rules own detectors.  Detection is driven by {!feed}; the
    temporal operators (periodic, plus) additionally need {!advance} to be
    told that logical time has progressed — {!feed} advances to the incoming
    occurrence's timestamp automatically.

    The per-operator, per-context semantics are specified in {!Context} and
    in the operator documentation of {!Expr}; the unit tests under
    [test/test_detector.ml] pin them down. *)

type instance = {
  constituents : Occurrence.t list;  (** chronological *)
  t_start : Oodb.Types.timestamp;
  t_end : Oodb.Types.timestamp;
}

type t

val create :
  ?context:Context.t ->
  ?subsumes:(sub:string -> super:string -> bool) ->
  on_signal:(instance -> unit) ->
  Expr.t ->
  t
(** [create ~on_signal expr] compiles [expr] into a detector.
    - [context] defaults to {!Context.Recent}.
    - [subsumes] decides whether a runtime class matches a primitive
      event's declared class; the default is string equality, and the rule
      layer passes database-backed inheritance so that an event declared on
      a superclass matches subclass instances. *)

val expr : t -> Expr.t
val context : t -> Context.t

val set_label : t -> string -> unit
(** Name this detector in observability output ("detect" trace spans).  The
    rule layer sets it to the owning rule's name; default [""]. *)

val label : t -> string

val feed : t -> Occurrence.t -> unit
(** Advance time to the occurrence's timestamp, then offer it to every
    matching primitive leaf.  May call [on_signal] zero or more times,
    synchronously. *)

val feed_many : t -> Occurrence.t list -> unit
(** Feed a chronologically ordered batch.  Observationally equivalent to
    feeding each occurrence in order — temporal trees advance the clock per
    occurrence so intermediate periodic/relative fires interleave exactly;
    non-temporal trees defer the (pure-traversal) clock walk to the batch
    boundary.  One metrics sample covers the whole batch. *)

val advance : t -> Oodb.Types.timestamp -> unit
(** Declare that logical time has reached the given instant (monotone;
    earlier instants are ignored).  Fires any due periodic/plus instances. *)

val reset : t -> unit
(** Drop all partial state (buffered constituents, open windows). *)

val expire : t -> before:Oodb.Types.timestamp -> unit
(** Drop buffered partial instances whose newest constituent is older than
    [before].  Bounds detector memory for long-running systems: a chronicle
    conjunction whose right side never arrives would otherwise buffer
    forever.  Open monitoring windows (aperiodic/periodic) and scheduled
    relative events are kept — they are intent, not stale state. *)

val fed : t -> int
(** Occurrences fed so far. *)

val signalled : t -> int
(** Composite instances signalled so far. *)

val instance_of_occurrence : Occurrence.t -> instance
(** The singleton instance a primitive occurrence denotes; exposed for
    tests and for rules over bare primitive events. *)

(** {1 Leaf-level access (used by {!Route})}

    A leaf is one primitive-event node of the compiled tree.  The route
    index keys all detectors' leaves by (method, modifier) so that
    an occurrence only reaches detectors with a potentially matching leaf,
    instead of being offered to every detector. *)

type leaf

val leaves : t -> leaf list
(** The compiled tree's primitive leaves, in the exact order the root's
    accept path visits them.  For the three-role operators (NOT, aperiodic,
    periodic) that is terminator, then canceller, then initiator — not
    source order — and indexes that bypass {!feed} must offer a multi-role
    occurrence to leaves in this order to stay observationally equivalent. *)

val leaf_prim : leaf -> Expr.prim

val offer_leaf : t -> leaf -> Occurrence.t -> unit
(** Advance time to the occurrence and offer it to this one leaf (which
    still applies its own full primitive filter). *)

val has_temporal : Expr.t -> bool
(** Does the expression contain periodic/relative operators that need
    {!advance} driving even without matching occurrences? *)

val pp_instance : Format.formatter -> instance -> unit
