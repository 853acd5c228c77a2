(* Small helpers shared by the benchmark modules: growable arrays,
   exact percentiles, process resource readings, the host fingerprint
   and the JSON result line. *)

(* Growable arrays in fixed-size chunks: growth allocates one more
   chunk and never copies, so recording a long run adds no stall of its
   own to the latencies it measures. The chunks are Bigarrays, outside
   the OCaml heap: the major collector neither scans them nor counts
   them as live data, so the recordings of a long run neither add
   marking work to the program's CPU time nor raise the heap the
   collector lets the program grow to. *)
let chunk_bits = 13

let chunk = 1 lsl chunk_bits

let chunk_bytes = chunk * 8

module A1 = Bigarray.Array1

(* Float array indexed by sequence number; unset slots read nan. *)
module Fvec = struct
  type t = {
    mutable chunks : (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t array;
    mutable n : int;
  }

  let create () = { chunks = [||]; n = 0 }

  let length v = v.n

  let new_chunk () =
    let c = A1.create Bigarray.float64 Bigarray.c_layout chunk in
    A1.fill c nan;
    c

  let ensure v i =
    let need = (i lsr chunk_bits) + 1 in
    let have = Array.length v.chunks in
    if need > have then
      v.chunks <- Array.append v.chunks (Array.init (need - have) (fun _ -> new_chunk ()));
    if i >= v.n then v.n <- i + 1

  let set v i x =
    ensure v i;
    A1.unsafe_set v.chunks.(i lsr chunk_bits) (i land (chunk - 1)) x

  let push v x = set v v.n x

  let get v i = if i < v.n then A1.get v.chunks.(i lsr chunk_bits) (i land (chunk - 1)) else nan

  let to_array v = Array.init v.n (get v)

  let bytes v = Array.length v.chunks * chunk_bytes
end

(* Int array (compact delivery logs). *)
module Ivec = struct
  type t = {
    mutable chunks : (int, Bigarray.int_elt, Bigarray.c_layout) A1.t array;
    mutable n : int;
  }

  let create () = { chunks = [||]; n = 0 }

  let length v = v.n

  let push v x =
    if v.n lsr chunk_bits >= Array.length v.chunks then begin
      let c = A1.create Bigarray.int Bigarray.c_layout chunk in
      A1.fill c 0;
      v.chunks <- Array.append v.chunks [| c |]
    end;
    A1.unsafe_set v.chunks.(v.n lsr chunk_bits) (v.n land (chunk - 1)) x;
    v.n <- v.n + 1

  let get v i = A1.get v.chunks.(i lsr chunk_bits) (i land (chunk - 1))

  let iter f v =
    for i = 0 to v.n - 1 do
      f (get v i)
    done

  let bytes v = Array.length v.chunks * chunk_bytes
end

(* Exact nearest-rank quantile of an already sorted array. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

let sorted_finite a =
  let l = Array.of_list (List.filter Float.is_finite (Array.to_list a)) in
  Array.sort Float.compare l;
  l

(* A timing summary: median, p90, p99, and the highest percentile with
   at least ten samples beyond it, with the sample count. *)
type summary = { count : int; p50 : float; p90 : float; p99 : float; top_q : float; top : float }

let summarize values =
  let a = sorted_finite values in
  let n = Array.length a in
  let top_q =
    List.fold_left
      (fun acc q -> if float_of_int n *. (1.0 -. q) >= 10.0 then q else acc)
      0.5 [ 0.9; 0.99; 0.999; 0.9999 ]
  in
  {
    count = n;
    p50 = quantile_sorted a 0.5;
    p90 = quantile_sorted a 0.9;
    p99 = quantile_sorted a 0.99;
    top_q;
    top = quantile_sorted a top_q;
  }

let median l =
  match l with
  | [] -> nan
  | _ -> quantile_sorted (sorted_finite (Array.of_list l)) 0.5

(* The same summary as the median over windows of each window's
   figure. The top percentile is the highest that has at least ten
   samples beyond it in every window; the count is the total. *)
let summarize_windows windows =
  let sorted = List.map sorted_finite windows in
  let top_q =
    List.fold_left (fun acc a -> Float.min acc (summarize a).top_q) 0.9999 sorted
  in
  let at q = median (List.map (fun a -> quantile_sorted a q) sorted) in
  {
    count = List.fold_left (fun acc a -> acc + Array.length a) 0 sorted;
    p50 = at 0.5;
    p90 = at 0.9;
    p99 = at 0.99;
    top_q;
    top = at top_q;
  }

let mean l =
  match l with [] -> nan | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* Process CPU seconds (user + system). *)
let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let read_file path =
  match open_in path with
  | ic ->
      let b = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel b ic 1
         done
       with End_of_file -> ());
      close_in ic;
      Buffer.contents b
  | exception Sys_error _ -> ""

(* Peak resident set size of this process (VmHWM) in MiB, less [less]
   bytes (the benchmark's own recording arrays). *)
let peak_rss_mb ~less =
  let status = read_file "/proc/self/status" in
  let kb =
    List.fold_left
      (fun acc line ->
        match Scanf.sscanf line "VmHWM: %d kB" (fun k -> k) with
        | k -> k
        | exception _ -> acc)
      0
      (String.split_on_char '\n' status)
  in
  (float_of_int kb /. 1024.0) -. (float_of_int less /. 1048576.0)

(* Filesystem type of the mount holding [dir]: longest mount-point
   prefix in the mount table. *)
let fs_type dir =
  let dir = if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir else dir in
  let best = ref ("?", -1) in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | _ :: mnt :: typ :: _ ->
          let l = String.length mnt in
          let prefix =
            mnt = "/"
            || String.length dir >= l
               && String.sub dir 0 l = mnt
               && (String.length dir = l || dir.[l] = '/')
          in
          if prefix && l > snd !best then best := (typ, l)
      | _ -> ())
    (String.split_on_char '\n' (read_file "/proc/self/mounts"));
  fst !best

let host_fingerprint ~wal_dir =
  Printf.sprintf "nproc=%d ocaml=%s kernel=%s wal_fs=%s"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (String.trim (read_file "/proc/sys/kernel/osrelease"))
    (fs_type wal_dir)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* A metric as printed: name, value, unit. *)
type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let result_json ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun mt ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name (json_number mt.value)
          mt.unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " fields)
