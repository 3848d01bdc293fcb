(** Exceptions shared by the substrate and the rule layer. *)

exception No_such_class of string
exception Duplicate_class of string
exception No_such_object of Oid.t
exception Dead_object of Oid.t  (** the OID named a deleted object *)

exception No_such_method of string * string
(** [(class, method)]: message not understood anywhere along the chain. *)

exception No_such_attribute of string * string  (** [(class, attribute)] *)

exception Type_error of string

exception Transaction_error of string
(** commit/abort without an open transaction, and similar misuse. *)

exception Rule_abort of string
(** Raised by a rule action (or an Ode hard constraint) to abort the
    triggering transaction — the paper's [A: abort] in Figure 9. *)

exception Parse_error of string
(** Event-signature or persistence-format syntax errors. *)

exception Io_error of string
(** Transient storage failure (an injected fault, a short write).  Retryable:
    see {!Storage.with_retries}. *)

val type_error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [type_error fmt ...] raises {!Type_error} with a formatted message. *)
