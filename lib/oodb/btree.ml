(* A textbook in-memory B+-tree: values only at the leaves, leaves linked
   for range scans, splitting on overflow, borrowing/merging on underflow.
   Nodes hold sorted arrays; with the default order of 16, the O(order)
   array copies on mutation are cheaper than pointer-chasing structures. *)

type payload = Postings.t

type node = Leaf of leaf | Node of internal

and leaf = {
  mutable entries : (Value.t * payload) array; (* sorted by key *)
  mutable next : leaf option;
}

and internal = {
  (* keys.(i) is the smallest key reachable in children.(i+1);
     Array.length children = Array.length keys + 1 *)
  mutable keys : Value.t array;
  mutable children : node array;
}

type t = { mutable root : node; order : int; mutable n_pairs : int }

let create ?(order = 16) () =
  let order = max 4 order in
  { root = Leaf { entries = [||]; next = None }; order; n_pairs = 0 }

let cardinal t = t.n_pairs

(* --- array helpers -------------------------------------------------------- *)

let array_insert a i x =
  let n = Array.length a in
  Array.init (n + 1) (fun j ->
      if j < i then a.(j) else if j = i then x else a.(j - 1))

let array_remove a i =
  let n = Array.length a in
  Array.init (n - 1) (fun j -> if j < i then a.(j) else a.(j + 1))

(* Index of [key] in a sorted entries array, or the insertion point. *)
let leaf_search entries key =
  let lo = ref 0 and hi = ref (Array.length entries) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Value.compare (fst entries.(mid)) key < 0 then lo := mid + 1
    else hi := mid
  done;
  !lo

(* Child index to route [key] to: first separator strictly greater wins. *)
let route (n : internal) key =
  let lo = ref 0 and hi = ref (Array.length n.keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Value.compare n.keys.(mid) key <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let node_size = function
  | Leaf l -> Array.length l.entries
  | Node n -> Array.length n.children

(* --- find / iterate -------------------------------------------------------- *)

let rec find_leaf node key =
  match node with
  | Leaf l -> l
  | Node n -> find_leaf n.children.(route n key) key

let find t key =
  let l = find_leaf t.root key in
  let i = leaf_search l.entries key in
  if i < Array.length l.entries && Value.equal (fst l.entries.(i)) key then
    Postings.to_list (snd l.entries.(i))
  else []

let rec leftmost = function Leaf l -> l | Node n -> leftmost n.children.(0)

let iter t f =
  let rec walk = function
    | None -> ()
    | Some l ->
      Array.iter (fun (k, p) -> f k (Postings.to_list p)) l.entries;
      walk l.next
  in
  walk (Some (leftmost t.root))

let min_key t =
  let rec first = function
    | None -> None
    | Some l ->
      if Array.length l.entries > 0 then Some (fst l.entries.(0))
      else first l.next
  in
  first (Some (leftmost t.root))

let rec rightmost = function
  | Leaf l -> l
  | Node n -> rightmost n.children.(Array.length n.children - 1)

let max_key t =
  let l = rightmost t.root in
  let n = Array.length l.entries in
  if n > 0 then Some (fst l.entries.(n - 1)) else None

let range t ?lo ?hi () =
  let start =
    match lo with
    | None -> leftmost t.root
    | Some (v, _) -> find_leaf t.root v
  in
  let keep_lo k =
    match lo with
    | None -> true
    | Some (v, inclusive) ->
      let c = Value.compare k v in
      if inclusive then c >= 0 else c > 0
  in
  let below_hi k =
    match hi with
    | None -> true
    | Some (v, inclusive) ->
      let c = Value.compare k v in
      if inclusive then c <= 0 else c < 0
  in
  let out = ref [] in
  let exception Done in
  (try
     let rec walk = function
       | None -> ()
       | Some l ->
         Array.iter
           (fun (k, p) ->
             if not (below_hi k) then raise Done;
             if keep_lo k then out := (k, Postings.to_list p) :: !out)
           l.entries;
         walk l.next
     in
     walk (Some start)
   with Done -> ());
  List.rev !out

let key_count t =
  let n = ref 0 in
  iter t (fun _ _ -> incr n);
  !n

let height t =
  let rec depth = function Leaf _ -> 1 | Node n -> 1 + depth n.children.(0) in
  depth t.root

let clear t =
  t.root <- Leaf { entries = [||]; next = None };
  t.n_pairs <- 0

(* --- insertion --------------------------------------------------------------- *)

(* Insert into a subtree; returns [Some (separator, right_sibling)] when the
   node split. *)
let rec insert_rec t node key oid =
  match node with
  | Leaf l ->
    let i = leaf_search l.entries key in
    if i < Array.length l.entries && Value.equal (fst l.entries.(i)) key then begin
      let k, p = l.entries.(i) in
      if not (Postings.mem p oid) then begin
        let p' = Postings.add p oid in
        if p' != p then l.entries.(i) <- (k, p');
        t.n_pairs <- t.n_pairs + 1
      end;
      None
    end
    else begin
      l.entries <- array_insert l.entries i (key, Postings.One oid);
      t.n_pairs <- t.n_pairs + 1;
      if Array.length l.entries <= t.order then None
      else begin
        (* split the leaf in half; the right half's first key separates *)
        let n = Array.length l.entries in
        let mid = n / 2 in
        let right =
          { entries = Array.sub l.entries mid (n - mid); next = l.next }
        in
        l.entries <- Array.sub l.entries 0 mid;
        l.next <- Some right;
        Some (fst right.entries.(0), Leaf right)
      end
    end
  | Node n -> (
    let i = route n key in
    match insert_rec t n.children.(i) key oid with
    | None -> None
    | Some (sep, right) ->
      n.keys <- array_insert n.keys i sep;
      n.children <- array_insert n.children (i + 1) right;
      if Array.length n.children <= t.order then None
      else begin
        (* split the internal node: the middle separator moves up *)
        let nk = Array.length n.keys in
        let mid = nk / 2 in
        let up = n.keys.(mid) in
        let right =
          {
            keys = Array.sub n.keys (mid + 1) (nk - mid - 1);
            children =
              Array.sub n.children (mid + 1) (Array.length n.children - mid - 1);
          }
        in
        n.keys <- Array.sub n.keys 0 mid;
        n.children <- Array.sub n.children 0 (mid + 1);
        Some (up, Node right)
      end)

let insert t key oid =
  match insert_rec t t.root key oid with
  | None -> ()
  | Some (sep, right) ->
    t.root <- Node { keys = [| sep |]; children = [| t.root; right |] }

let min_leaf_entries t = t.order / 2
let min_node_children t = (t.order + 1) / 2

(* --- bulk loading ------------------------------------------------------------- *)

(* Nodes about 70% full, as random inserts leave them: a full node would
   split on the first insert that reaches it. *)
let fill t least = min t.order (max least ((7 * t.order + 5) / 10))

(* How many nodes [n] items make when packed [fill] to a node, but never so
   many that an even spread leaves a node under [least]: spread evenly,
   every node then holds between [least] and [order] items. *)
let nodes_for ~n ~fill ~least = max 1 (min ((n + fill - 1) / fill) (n / least))

let of_pairs ?order pairs =
  let t = create ?order () in
  Array.stable_sort
    (fun (k1, o1) (k2, o2) ->
      match Value.compare k1 k2 with 0 -> Oid.compare o1 o2 | c -> c)
    pairs;
  (* one entry per run of keys equal under Value.compare, keyed by the
     run's first value: the one paired with the lowest OID *)
  let n = Array.length pairs in
  let entries = Array.make n (Value.Null, Postings.One (Oid.of_int 0)) in
  let m = ref 0 and i = ref 0 in
  while !i < n do
    let k, oid = pairs.(!i) in
    let p = ref (Postings.One oid) in
    incr i;
    while !i < n && Value.compare (fst pairs.(!i)) k = 0 do
      p := Postings.add !p (snd pairs.(!i));
      incr i
    done;
    t.n_pairs <- t.n_pairs + Postings.cardinal !p;
    entries.(!m) <- (k, !p);
    incr m
  done;
  let m = !m in
  let n_leaves = nodes_for ~n:m ~fill:(fill t (min_leaf_entries t)) ~least:(min_leaf_entries t) in
  let leaves =
    Array.init n_leaves (fun j ->
        let lo = j * m / n_leaves and hi = (j + 1) * m / n_leaves in
        { entries = Array.sub entries lo (hi - lo); next = None })
  in
  for j = 0 to n_leaves - 2 do
    leaves.(j).next <- Some leaves.(j + 1)
  done;
  (* each level as (smallest key below, node) *)
  let level =
    ref
      (Array.map
         (fun l ->
           ((if Array.length l.entries > 0 then fst l.entries.(0) else Value.Null), Leaf l))
         leaves)
  in
  let least = min_node_children t in
  while Array.length !level > 1 do
    let below = !level in
    let k = Array.length below in
    let n_nodes = nodes_for ~n:k ~fill:(fill t least) ~least in
    level :=
      Array.init n_nodes (fun j ->
          let lo = j * k / n_nodes and hi = (j + 1) * k / n_nodes in
          ( fst below.(lo),
            Node
              {
                keys = Array.init (hi - lo - 1) (fun c -> fst below.(lo + c + 1));
                children = Array.init (hi - lo) (fun c -> snd below.(lo + c));
              } ))
  done;
  t.root <- snd !level.(0);
  t

(* --- deletion ------------------------------------------------------------------ *)

let first_key_of_subtree node =
  let l = leftmost node in
  fst l.entries.(0)

(* Rebalance child [i] of [parent] after a removal left it under-occupied. *)
let fix_child t (parent : internal) i =
  let child = parent.children.(i) in
  let underflow =
    match child with
    | Leaf l -> Array.length l.entries < min_leaf_entries t
    | Node n -> Array.length n.children < min_node_children t
  in
  if underflow then begin
    let left = if i > 0 then Some (parent.children.(i - 1)) else None in
    let right =
      if i < Array.length parent.children - 1 then Some (parent.children.(i + 1))
      else None
    in
    let can_lend = function
      | Some (Leaf l) -> Array.length l.entries > min_leaf_entries t
      | Some (Node n) -> Array.length n.children > min_node_children t
      | None -> false
    in
    match (child, left, right) with
    (* -- borrow into a leaf ------------------------------------------------ *)
    | Leaf c, Some (Leaf l), _ when can_lend left ->
      let n = Array.length l.entries in
      c.entries <- array_insert c.entries 0 l.entries.(n - 1);
      l.entries <- array_remove l.entries (n - 1);
      parent.keys.(i - 1) <- fst c.entries.(0)
    | Leaf c, _, Some (Leaf r) when can_lend right ->
      c.entries <- array_insert c.entries (Array.length c.entries) r.entries.(0);
      r.entries <- array_remove r.entries 0;
      parent.keys.(i) <- fst r.entries.(0)
    (* -- borrow into an internal node -------------------------------------- *)
    | Node c, Some (Node l), _ when can_lend left ->
      let nk = Array.length l.keys and nc = Array.length l.children in
      c.keys <- array_insert c.keys 0 parent.keys.(i - 1);
      c.children <- array_insert c.children 0 l.children.(nc - 1);
      parent.keys.(i - 1) <- l.keys.(nk - 1);
      l.keys <- array_remove l.keys (nk - 1);
      l.children <- array_remove l.children (nc - 1)
    | Node c, _, Some (Node r) when can_lend right ->
      c.keys <- array_insert c.keys (Array.length c.keys) parent.keys.(i);
      c.children <-
        array_insert c.children (Array.length c.children) r.children.(0);
      parent.keys.(i) <- r.keys.(0);
      r.keys <- array_remove r.keys 0;
      r.children <- array_remove r.children 0
    (* -- merge with a sibling ----------------------------------------------- *)
    | Leaf c, Some (Leaf l), _ ->
      l.entries <- Array.append l.entries c.entries;
      l.next <- c.next;
      parent.keys <- array_remove parent.keys (i - 1);
      parent.children <- array_remove parent.children i
    | Leaf c, None, Some (Leaf r) ->
      c.entries <- Array.append c.entries r.entries;
      c.next <- r.next;
      parent.keys <- array_remove parent.keys i;
      parent.children <- array_remove parent.children (i + 1)
    | Node c, Some (Node l), _ ->
      l.keys <- Array.append l.keys (array_insert c.keys 0 parent.keys.(i - 1));
      l.children <- Array.append l.children c.children;
      parent.keys <- array_remove parent.keys (i - 1);
      parent.children <- array_remove parent.children i
    | Node c, None, Some (Node r) ->
      c.keys <- Array.append c.keys (array_insert r.keys 0 parent.keys.(i));
      c.children <- Array.append c.children r.children;
      parent.keys <- array_remove parent.keys i;
      parent.children <- array_remove parent.children (i + 1)
    (* a leaf's siblings are leaves; an internal node's are internal *)
    | Leaf _, Some (Node _), _
    | Leaf _, None, Some (Node _)
    | Node _, Some (Leaf _), _
    | Node _, None, Some (Leaf _) ->
      assert false
    | _, None, None -> () (* the root has no siblings *)
  end

let rec remove_rec t node key oid =
  match node with
  | Leaf l ->
    let i = leaf_search l.entries key in
    if i < Array.length l.entries && Value.equal (fst l.entries.(i)) key then begin
      let k, p = l.entries.(i) in
      if Postings.mem p oid then begin
        t.n_pairs <- t.n_pairs - 1;
        match Postings.remove p oid with
        | None -> l.entries <- array_remove l.entries i
        | Some p' -> if p' != p then l.entries.(i) <- (k, p')
      end
    end
  | Node n ->
    let i = route n key in
    remove_rec t n.children.(i) key oid;
    (* keep the separator exact: it must equal the smallest key on the
       right, which removal may have changed *)
    if i > 0 && node_size n.children.(i) > 0 then
      n.keys.(i - 1) <- first_key_of_subtree n.children.(i);
    fix_child t n i

let remove t key oid =
  remove_rec t t.root key oid;
  (* collapse a root that lost all but one child *)
  match t.root with
  | Node n when Array.length n.children = 1 -> t.root <- n.children.(0)
  | Node _ | Leaf _ -> ()

(* --- invariants ------------------------------------------------------------------ *)

let check_invariants t =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
  let rec check node ~is_root ~lo ~hi =
    (* returns depth *)
    let in_bounds k =
      (match lo with Some v when Value.compare k v < 0 -> false | _ -> true)
      && match hi with Some v when Value.compare k v >= 0 -> false | _ -> true
    in
    match node with
    | Leaf l ->
      let n = Array.length l.entries in
      if (not is_root) && n < min_leaf_entries t then
        bad "leaf underflow: %d < %d" n (min_leaf_entries t);
      if n > t.order then bad "leaf overflow: %d" n;
      Array.iteri
        (fun i (k, p) ->
          if not (in_bounds k) then bad "leaf key out of separator bounds";
          if not (Postings.well_formed p) then bad "a Many payload holds < 2 OIDs";
          if i > 0 && Value.compare (fst l.entries.(i - 1)) k >= 0 then
            bad "leaf keys not strictly increasing")
        l.entries;
      1
    | Node n ->
      let nc = Array.length n.children in
      if Array.length n.keys <> nc - 1 then bad "keys/children arity mismatch";
      if (not is_root) && nc < min_node_children t then
        bad "internal underflow: %d < %d" nc (min_node_children t);
      if is_root && nc < 2 then bad "internal root with < 2 children";
      if nc > t.order then bad "internal overflow: %d" nc;
      Array.iteri
        (fun i k ->
          if not (in_bounds k) then bad "separator out of bounds";
          if i > 0 && Value.compare n.keys.(i - 1) k >= 0 then
            bad "separators not strictly increasing")
        n.keys;
      (* each separator equals the smallest key of the child to its right *)
      Array.iteri
        (fun i k ->
          if node_size n.children.(i + 1) > 0 then
            let smallest = first_key_of_subtree n.children.(i + 1) in
            if not (Value.equal smallest k) then
              bad "separator %s != child min %s" (Value.to_string k)
                (Value.to_string smallest))
        n.keys;
      let depths =
        Array.mapi
          (fun i child ->
            let lo = if i = 0 then lo else Some n.keys.(i - 1) in
            let hi = if i = nc - 1 then hi else Some n.keys.(i) in
            check child ~is_root:false ~lo ~hi)
          n.children
      in
      Array.iter
        (fun d -> if d <> depths.(0) then bad "non-uniform leaf depth")
        depths;
      depths.(0) + 1
  in
  try
    let (_ : int) = check t.root ~is_root:true ~lo:None ~hi:None in
    (* leaf chain visits exactly the tree's keys in order *)
    let chain = ref [] in
    iter t (fun k _ -> chain := k :: !chain);
    let sorted = List.sort Value.compare !chain in
    if List.rev !chain <> sorted then fail "leaf chain out of order"
    else begin
      let pairs = ref 0 in
      iter t (fun _ oids -> pairs := !pairs + List.length oids);
      if !pairs <> t.n_pairs then
        fail "cardinal mismatch: counted %d, recorded %d" !pairs t.n_pairs
      else Ok ()
    end
  with Bad msg -> Error msg
