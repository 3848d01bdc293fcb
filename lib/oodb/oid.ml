type t = int

let of_int n = n
let to_int n = n
let equal = Int.equal
let compare = Int.compare
(* Consecutive OIDs land in consecutive buckets, so a bulk creation or an
   extent walk in OID order touches the bucket array and the bucket cells
   (allocated in that same order) sequentially.  The shifted xor folds bits
   3 and up into the low bits: OIDs a shard allocates at a stride of 2, 4
   or 8 still reach every bucket, not one in [stride].  The low k bits of
   the hash depend only on the OID's low k + 3 bits, one-to-one once those
   top three are fixed, so of the OIDs below 8 times a table's 2^k buckets
   each bucket gets exactly eight.  Negative OIDs (built by hand with
   [of_int]) hash like any other bit pattern. *)
let hash x = x lxor (x lsr 3)
let pp ppf n = Format.fprintf ppf "@@%d" n
let to_string n = "@" ^ string_of_int n

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

(* LSD radix sort, 11 bits a pass: an extent of 100k OIDs takes two passes,
   about ten times faster than a comparison sort.  Short arrays, whose sort
   would cost less than a pass's 2048 counters, and negative OIDs (built by
   hand with [of_int]) take the comparison sort. *)
let sort a =
  let n = Array.length a in
  if n < 256 || Array.exists (fun x -> x < 0) a then Array.stable_sort compare a
  else begin
    let top = Array.fold_left max 0 a in
    let src = ref a and dst = ref (Array.make n 0) and shift = ref 0 in
    while top lsr !shift > 0 do
      let s = !src and d = !dst and sh = !shift in
      let next = Array.make 2049 0 in
      for i = 0 to n - 1 do
        let b = (s.(i) lsr sh) land 2047 in
        next.(b + 1) <- next.(b + 1) + 1
      done;
      for b = 1 to 2048 do
        next.(b) <- next.(b) + next.(b - 1)
      done;
      for i = 0 to n - 1 do
        let b = (s.(i) lsr sh) land 2047 in
        d.(next.(b)) <- s.(i);
        next.(b) <- next.(b) + 1
      done;
      src := d;
      dst := s;
      shift := sh + 11
    done;
    if !src != a then Array.blit !src 0 a 0 n
  end

let sorted_keys tbl =
  let a = Array.make (Table.length tbl) 0 in
  let n = ref 0 in
  Table.iter
    (fun k _ ->
      a.(!n) <- k;
      incr n)
    tbl;
  sort a;
  a
