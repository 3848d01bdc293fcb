(** The event algebra and composite-event detection.

    {!Expr} builds event expressions (primitives from signatures or
    constructors, composed with the Snoop operators); {!Parser} gives them
    a concrete syntax; {!Codec} a persistent encoding.  {!Detector}
    compiles an expression into a running detector under a parameter
    {!Context}; {!Route} routes occurrences to many detectors through a
    (method, modifier) index over their leaves, with the rule layer's
    subscription filtering, lifecycle and cached class subsumption. *)

module Context = Context
module Signature = Signature
module Expr = Expr
module Detector = Detector
module Codec = Codec
module Parser = Parser
module Route = Route
