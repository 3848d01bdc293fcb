open Import

(** Named condition and action functions.

    The paper stores conditions and actions as C++ pointers-to-member-
    function; code is not persistable, so a loaded rule must re-link its
    behaviour.  Here every condition/action is registered under a name; rule
    objects persist the {e names} and rehydration looks the closures back
    up.  Registries are per-{!System.t} so independent systems (and tests)
    do not interfere. *)

type condition = Db.t -> Detector.instance -> bool
(** A condition sees the database and the composite-event instance (whose
    constituent occurrences carry the actual parameters — the paper's
    recorded parameters). *)

type action = Db.t -> Detector.instance -> unit
(** An action may mutate the database, send messages (possibly cascading
    rule firings) or raise {!Errors.Rule_abort} to abort the triggering
    transaction. *)

type t

val create : unit -> t

val register_condition : t -> string -> condition -> unit
(** @raise Errors.Type_error when the name is already taken. *)

val register_action :
  ?may_send:(string * Oodb.Types.modifier) list -> t -> string -> action -> unit
(** [may_send] declares the primitive events the action can generate — the
    (method, modifier) pairs of messages it sends.  This powers the static
    triggering-graph analysis ({!Analysis}); omitting it means the action
    is treated as side-effect-free for analysis purposes.
    @raise Errors.Type_error when the name is already taken. *)

val unregister_action : t -> string -> unit
(** Forget the named action, dropping the registry's hold on its closure.
    Rules created with it keep the function they already resolved.  No-op
    for unknown names. *)

val find_condition : t -> string -> condition
(** @raise Errors.Type_error on unknown names. *)

val find_action : t -> string -> action
(** @raise Errors.Type_error on unknown names. *)

val action_effects : t -> string -> (string * Oodb.Types.modifier) list
(** The [may_send] declaration of a registered action.
    @raise Errors.Type_error on unknown names. *)

val condition_names : t -> string list
val action_names : t -> string list

(** {1 Built-ins}

    Every registry is created with two built-ins:
    - condition ["true"] — always satisfied;
    - action ["abort"] — raises {!Errors.Rule_abort} (Figure 9's action). *)
