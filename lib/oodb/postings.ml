(* The OIDs one secondary-index key maps to.  Most keys of an index over a
   near-unique attribute (a symbol, a name) hold a single OID, so that OID
   is kept inline; the table appears with a key's second OID and goes again
   when the key is back to one.  A [Many] always holds two OIDs or more. *)

type t = One of Oid.t | Many of unit Oid.Table.t

let cardinal = function One _ -> 1 | Many t -> Oid.Table.length t

let mem p oid =
  match p with One o -> Oid.equal o oid | Many t -> Oid.Table.mem t oid

let add p oid =
  match p with
  | One o when Oid.equal o oid -> p
  | One o ->
    let t = Oid.Table.create 2 in
    Oid.Table.replace t o ();
    Oid.Table.replace t oid ();
    Many t
  | Many t ->
    Oid.Table.replace t oid ();
    p

let remove p oid =
  match p with
  | One o -> if Oid.equal o oid then None else Some p
  | Many t -> (
    Oid.Table.remove t oid;
    if Oid.Table.length t > 1 then Some p
    else
      match Oid.Table.to_seq_keys t () with
      | Seq.Cons (o, _) -> Some (One o)
      | Seq.Nil -> None)

let iter f = function One o -> f o | Many t -> Oid.Table.iter (fun o () -> f o) t

let to_list = function
  | One o -> [ o ]
  | Many t -> Oid.Table.fold (fun o () acc -> o :: acc) t [] |> List.sort Oid.compare

let well_formed = function One _ -> true | Many t -> Oid.Table.length t >= 2
