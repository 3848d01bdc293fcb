(* Growable buffers of measurements and the order statistics the report
   quotes. *)

type t = { mutable data : float array; mutable len : int }

let create () = { data = Array.make 256 0.; len = 0 }

let add t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0. in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let count t = t.len

let concat ts =
  let r = create () in
  List.iter (fun t -> for i = 0 to t.len - 1 do add r t.data.(i) done) ts;
  r

let sorted t =
  let s = Array.sub t.data 0 t.len in
  Array.sort Float.compare s;
  s

(* Nearest-rank percentile of a sorted array, [p] in (0, 100]; nan when
   empty. *)
let rank s p =
  let n = Array.length s in
  if n = 0 then Float.nan
  else
    let r = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    s.(max 0 (min (n - 1) (r - 1)))

let percentile t p = rank (sorted t) p

let median xs =
  let t = create () in
  List.iter (add t) xs;
  percentile t 50.

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them (its
   default "exclusive" method), so the spreads this program prints match the
   ones a caller computes from its own runs.  Needs at least two values. *)
let quartiles xs =
  let s = Array.of_list xs in
  Array.sort Float.compare s;
  let ld = Array.length s in
  if ld < 2 then invalid_arg "Samples.quartiles: need at least two values";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 2, q 3)
