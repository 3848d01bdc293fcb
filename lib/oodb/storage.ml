type writer = {
  write : string -> unit;
  flush : unit -> unit;
  fsync : unit -> unit;
  close : unit -> unit;
}

type t = {
  name : string;
  exists : string -> bool;
  size : string -> int;
  read_file : string -> string;
  open_writer : append:bool -> string -> writer;
  open_log : append:bool -> string -> writer;
  rename : string -> string -> unit;
  unlink : string -> unit;
  truncate : string -> int -> unit;
  fsync_dir : string -> unit;
}

exception Crash

(* --- retry ---------------------------------------------------------------- *)

let default_backoff attempt =
  try Unix.sleepf (0.002 *. float_of_int (1 lsl min (attempt - 1) 6))
  with Unix.Unix_error _ -> ()

let with_retries ?(attempts = 5) ?(backoff = default_backoff) f =
  let rec go n =
    try f ()
    with Errors.Io_error _ when n + 1 < attempts ->
      backoff (n + 1);
      go (n + 1)
  in
  go 0

(* --- CRC-32 --------------------------------------------------------------- *)

module Crc32 = struct
  (* Slicing-by-16: [table.(k * 256 + n)] is the CRC of byte [n] followed
     by [k] zero bytes, so sixteen bytes fold in per step, through sixteen
     independent lookups.  Built eagerly at module initialisation: a lazy
     table raced when two domains forced it at once. *)
  let table =
    let t = Array.make (16 * 256) 0 in
    for n = 0 to 255 do
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      t.(n) <- !c
    done;
    for k = 1 to 15 do
      for n = 0 to 255 do
        let prev = t.(((k - 1) * 256) + n) in
        t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
      done
    done;
    t

  (* The four bytes of [w] (low byte first) looked up [k + 3] down to [k]
     zero bytes ahead. *)
  let[@inline] fold4 t k w =
    Array.unsafe_get t (((k + 3) * 256) + (w land 0xFF))
    lxor Array.unsafe_get t (((k + 2) * 256) + ((w lsr 8) land 0xFF))
    lxor Array.unsafe_get t (((k + 1) * 256) + ((w lsr 16) land 0xFF))
    lxor Array.unsafe_get t ((k * 256) + (w lsr 24))

  let[@inline] low32 w = Int64.to_int w land 0xFFFF_FFFF
  let[@inline] high32 w = Int64.to_int (Int64.shift_right_logical w 32)

  let update crc s pos len =
    if pos < 0 || len < 0 || pos > String.length s - len then
      invalid_arg "Crc32.update";
    let t = table in
    let c = ref (crc lxor 0xFFFF_FFFF) in
    let i = ref pos in
    let stop = pos + len in
    while !i + 16 <= stop do
      let w0 = String.get_int64_le s !i
      and w1 = String.get_int64_le s (!i + 8) in
      c :=
        fold4 t 12 (!c lxor low32 w0)
        lxor fold4 t 8 (high32 w0)
        lxor fold4 t 4 (low32 w1)
        lxor fold4 t 0 (high32 w1);
      i := !i + 16
    done;
    while !i < stop do
      c :=
        Array.unsafe_get t
          ((!c lxor Char.code (String.unsafe_get s !i)) land 0xFF)
        lxor (!c lsr 8);
      incr i
    done;
    !c lxor 0xFFFF_FFFF

  let string ?(crc = 0) s = update crc s 0 (String.length s)

  let hex_digits = "0123456789abcdef"

  let add_hex buf c =
    for i = 7 downto 0 do
      Buffer.add_char buf hex_digits.[(c lsr (i * 4)) land 0xF]
    done

  let to_hex c =
    let buf = Buffer.create 8 in
    add_hex buf c;
    Buffer.contents buf
end

(* --- the real filesystem -------------------------------------------------- *)

let unix_fsync_oc oc =
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

(* Pre-zeroed log tail.  An fsync after an append that grows a file also
   commits ext4's journal for the new size and blocks.  A log writer keeps
   zeros already written ahead of its logical end and writes each batch over
   them, so once the extension that laid them down is durable, a sync only
   flushes data (PostgreSQL fills its WAL segments with zeros for the same
   reason).  Each extension lays down [step] bytes past the write that
   needed it; the step doubles from [log_step_min] up to [log_step_max].
   The first step is one page, so that creating a log flushes hardly more
   than before.  The seal after an extension also flushes its zeros, so
   the cap bounds that seal's extra work; a busy log reaches it within
   seven extensions. *)
let log_step_min = 4096
let log_step_max = 1 lsl 18

(* Never written to, so every domain can write from it. *)
let zeros = Bytes.make 65536 '\000'

let rec write_zeros fd n =
  if n > 0 then
    write_zeros fd (n - Unix.write fd zeros 0 (min n (Bytes.length zeros)))

let open_unix_log ~append path =
  let flags =
    Unix.[ O_WRONLY; O_CREAT; O_CLOEXEC ] @ if append then [] else [ Unix.O_TRUNC ]
  in
  let fd = Unix.openfile path flags 0o644 in
  (* [pos] is the logical end; the bytes in [pos, room) are zeros *)
  let pos = ref (Unix.lseek fd 0 Unix.SEEK_END) in
  let room = ref !pos and step = ref log_step_min and closed = ref false in
  let write s =
    let stop = !pos + String.length s in
    match
      ignore (Unix.write_substring fd s 0 (String.length s));
      if stop > !room then begin
        write_zeros fd !step;
        room := stop + !step;
        step := min log_step_max (2 * !step);
        ignore (Unix.lseek fd stop Unix.SEEK_SET)
      end
    with
    | () -> pos := stop
    | exception e ->
      (* the next write starts over at the logical end *)
      (try ignore (Unix.lseek fd !pos Unix.SEEK_SET) with Unix.Unix_error _ -> ());
      raise e
  in
  {
    write;
    flush = ignore;
    fsync = (fun () -> Unix.fsync fd);
    close =
      (fun () ->
        if not !closed then begin
          closed := true;
          (* a cleanly closed log has no zero tail *)
          (try Unix.ftruncate fd !pos with Unix.Unix_error _ -> ());
          try Unix.close fd with Unix.Unix_error _ -> ()
        end);
  }

let unix =
  {
    name = "unix";
    exists = Sys.file_exists;
    size =
      (fun path ->
        match Unix.stat path with
        | { Unix.st_size; _ } -> st_size
        | exception Unix.Unix_error _ -> 0);
    read_file =
      (fun path -> In_channel.with_open_bin path In_channel.input_all);
    open_writer =
      (fun ~append path ->
        let flags =
          Open_wronly :: Open_creat :: Open_binary
          :: (if append then [ Open_append ] else [ Open_trunc ])
        in
        let oc = open_out_gen flags 0o644 path in
        {
          write = (fun s -> output_string oc s);
          flush = (fun () -> flush oc);
          fsync = (fun () -> unix_fsync_oc oc);
          close = (fun () -> close_out_noerr oc);
        });
    open_log = open_unix_log;
    rename = Sys.rename;
    unlink = (fun path -> if Sys.file_exists path then Sys.remove path);
    truncate = Unix.truncate;
    fsync_dir =
      (fun path ->
        (* Not every filesystem lets you fsync a directory fd; durability of
           the rename is best effort there, and failure is not an error the
           caller can act on. *)
        match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
        | fd ->
          (try Unix.fsync fd with Unix.Unix_error _ -> ());
          Unix.close fd
        | exception Unix.Unix_error _ -> ());
  }

(* --- the fault-injecting in-memory filesystem ----------------------------- *)

module Mem = struct
  (* Both parts grow by appending in place, so a file written in N pieces
     costs O(N) bytes copied, not the O(N^2) of rebuilding a string per
     write. *)
  type file = { durable : Buffer.t; pending : Buffer.t }

  type fs = {
    table : (string, file) Hashtbl.t;
    cache : bool;
    mutable crash_bytes : int option;
    mutable crash_ops : int option;
    mutable crash_reads : int option;
    mutable transient : int;
    mutable crashed : bool;
    mutable n_fsyncs : int;
    mutable n_ops : int;
  }

  let create ?(cache = false) () =
    {
      table = Hashtbl.create 8;
      cache;
      crash_bytes = None;
      crash_ops = None;
      crash_reads = None;
      transient = 0;
      crashed = false;
      n_fsyncs = 0;
      n_ops = 0;
    }

  let crash_after_bytes fs n = fs.crash_bytes <- Some n
  let crash_after_ops fs n = fs.crash_ops <- Some n
  let crash_after_reads fs n = fs.crash_reads <- Some n
  let fail_writes fs n = fs.transient <- n

  let clear_faults fs =
    fs.crash_bytes <- None;
    fs.crash_ops <- None;
    fs.crash_reads <- None;
    fs.transient <- 0;
    fs.crashed <- false

  let fsyncs fs = fs.n_fsyncs
  let ops fs = fs.n_ops

  (* Every mutating operation passes through here: it honours a pending
     crash-after-ops budget and keeps raising once crashed. *)
  let op fs =
    if fs.crashed then raise Crash;
    (match fs.crash_ops with
    | Some n when n <= 0 ->
      fs.crashed <- true;
      raise Crash
    | Some n -> fs.crash_ops <- Some (n - 1)
    | None -> ());
    fs.n_ops <- fs.n_ops + 1

  let promote f =
    Buffer.add_buffer f.durable f.pending;
    Buffer.clear f.pending

  let find fs path = Hashtbl.find_opt fs.table path

  let get fs path =
    match find fs path with
    | Some f -> f
    | None ->
      let f = { durable = Buffer.create 64; pending = Buffer.create 64 } in
      Hashtbl.replace fs.table path f;
      f

  let length f = Buffer.length f.durable + Buffer.length f.pending

  let live f =
    let d = Buffer.length f.durable in
    let b = Bytes.create (length f) in
    Buffer.blit f.durable 0 b 0 d;
    Buffer.blit f.pending 0 b d (Buffer.length f.pending);
    Bytes.unsafe_to_string b

  let contents fs path = match find fs path with Some f -> live f | None -> ""

  let durable fs path =
    match find fs path with Some f -> Buffer.contents f.durable | None -> ""

  let set_file fs path s =
    let f = get fs path in
    Buffer.clear f.durable;
    Buffer.add_string f.durable s;
    Buffer.clear f.pending

  let files fs =
    Hashtbl.fold (fun k _ acc -> k :: acc) fs.table [] |> List.sort compare

  let reboot fs =
    let fs' = create ~cache:fs.cache () in
    Hashtbl.iter (fun path f -> set_file fs' path (Buffer.contents f.durable)) fs.table;
    fs'

  let append fs f s =
    Buffer.add_string f.pending s;
    if not fs.cache then promote f

  let write fs f s =
    if fs.crashed then raise Crash;
    if fs.transient > 0 then begin
      fs.transient <- fs.transient - 1;
      raise (Errors.Io_error "injected transient write failure")
    end;
    op fs;
    match fs.crash_bytes with
    | Some budget when String.length s > budget ->
      (* the crash tears the write in flight: only a prefix lands *)
      append fs f (String.sub s 0 budget);
      fs.crash_bytes <- Some 0;
      fs.crashed <- true;
      raise Crash
    | Some budget ->
      fs.crash_bytes <- Some (budget - String.length s);
      append fs f s
    | None -> append fs f s

  let open_writer fs ~append path =
    op fs;
    let f = get fs path in
    if not append then begin
      Buffer.clear f.durable;
      Buffer.clear f.pending
    end;
    {
      write = (fun s -> write fs f s);
      flush = (fun () -> ());
      fsync =
        (fun () ->
          op fs;
          promote f;
          fs.n_fsyncs <- fs.n_fsyncs + 1);
      close = (fun () -> ());
    }

  let storage fs =
    {
      name = "mem";
      exists = (fun path -> Hashtbl.mem fs.table path);
      size = (fun path -> match find fs path with Some f -> length f | None -> 0);
      read_file =
        (fun path ->
          (* reads honour their own crash budget: recovery is a read-only
             pipeline, so interrupting it needs a read-side fault.  The
             budget stays exhausted (reads keep crashing) until
             [clear_faults]. *)
          (match fs.crash_reads with
          | Some n when n <= 0 ->
            fs.crashed <- true;
            raise Crash
          | Some n -> fs.crash_reads <- Some (n - 1)
          | None -> ());
          match find fs path with
          | Some f -> live f
          | None -> raise (Sys_error (path ^ ": No such file or directory")));
      open_writer = open_writer fs;
      (* no zero tail: the crash harness tears plain appends *)
      open_log = open_writer fs;
      rename =
        (fun src dst ->
          op fs;
          match find fs src with
          | None -> raise (Sys_error (src ^ ": No such file or directory"))
          | Some f ->
            Hashtbl.remove fs.table src;
            Hashtbl.replace fs.table dst f);
      unlink =
        (fun path ->
          op fs;
          Hashtbl.remove fs.table path);
      truncate =
        (fun path n ->
          op fs;
          let f = get fs path in
          let d = Buffer.length f.durable in
          if n <= d then Buffer.truncate f.durable n
          else
            Buffer.add_string f.durable
              (Buffer.sub f.pending 0 (min (n - d) (Buffer.length f.pending)));
          Buffer.clear f.pending);
      fsync_dir = (fun _ -> op fs);
    }
end
