(* The per-layer half of the traced run: the workload's seeded message
   stream replayed through each layer's public functions in isolation,
   with no sockets, loop or other layers in the way.

   Timings use the wall clock around each call (or around a batch of
   calls where the layer allows it), minus the measured cost of an
   empty timed section. Each figure is the median of [passes] replays. *)

module Codec = Svs_codec.Codec
module Types = Svs_core.Types
module View = Svs_core.View
module Protocol = Svs_core.Protocol
module Wire_codec = Svs_core.Wire_codec
module Msg_id = Svs_obs.Msg_id
module Purge_index = Svs_obs.Purge_index
module Shed = Svs_obs.Shed
module Tcp_mesh = Svs_rt.Tcp_mesh
module Iobuf = Svs_rt.Iobuf
module Wal = Svs_rt.Wal
open Util

let passes = 3

let now = Unix.gettimeofday

(* Cost of an empty timed section, subtracted from per-call timings. *)
let clock_overhead =
  lazy
    (let n = 100_000 in
     let acc = ref 0.0 in
     for _ = 1 to n do
       let a = now () in
       acc := !acc +. (now () -. a)
     done;
     !acc /. float_of_int n)

let per_call total calls = (total /. float_of_int (max 1 calls)) -. Lazy.force clock_overhead

let med_pass f = median (List.init passes (fun _ -> f ()))

(* Stream index i travels as sequence number i + 1 (as in the cluster). *)
let data (w : _ Cluster.workload) i =
  {
    Types.id = Msg_id.make ~sender:0 ~sn:(i + 1);
    view_id = 0;
    payload = w.Cluster.payload i;
    ann = w.Cluster.ann i;
  }

let wire_codec w ~n =
  let msgs = Array.init n (fun i -> Types.Wdata (data w i)) in
  let wr = Codec.Writer.create ~initial_capacity:2048 () in
  let encoded = Array.map (Wire_codec.wire_to_string w.Cluster.codec) msgs in
  let bytes = Array.fold_left (fun acc s -> acc + String.length s) 0 encoded in
  let encode () =
    let t0 = now () in
    Array.iter
      (fun m ->
        Codec.Writer.clear wr;
        Wire_codec.write_wire w.Cluster.codec wr m)
      msgs;
    (now () -. t0) /. float_of_int n
  in
  let decode () =
    let t0 = now () in
    Array.iter
      (fun s -> ignore (Wire_codec.read_wire w.Cluster.codec (Codec.Reader.of_string s)))
      encoded;
    (now () -. t0) /. float_of_int n
  in
  (med_pass encode, med_pass decode, float_of_int bytes /. float_of_int n, encoded)

(* Three in-memory protocol instances: multicast at 0, every DATA
   routed to its destination, everything pulled, stability gossip every
   [trim_every] messages. *)
let protocol w ~n =
  let trim_every = 1000 in
  let run () =
    let members = [ 0; 1; 2 ] in
    let procs =
      Array.init 3 (fun me ->
          Protocol.create ~me ~initial_view:(View.initial ~members)
            ~suspects:(fun _ -> false) ())
    in
    let rec route p =
      List.iter
        (function
          | Types.Send { dst; wire } ->
              Protocol.receive procs.(dst) ~src:p wire;
              route dst
          | _ -> ())
        (Protocol.take_outputs procs.(p))
    in
    let pull p =
      let rec go () = match Protocol.deliver procs.(p) with Some _ -> go () | None -> () in
      go ()
    in
    let w0 = Gc.minor_words () in
    let t0 = now () in
    for i = 0 to n - 1 do
      ignore (Protocol.multicast procs.(0) ~ann:(w.Cluster.ann i) (w.Cluster.payload i));
      route 0;
      Array.iteri (fun p _ -> pull p) procs;
      if (i + 1) mod trim_every = 0 then
        Array.iteri
          (fun p pr ->
            Protocol.gossip_stability pr;
            route p)
          procs
    done;
    let dt = now () -. t0 in
    (dt /. float_of_int n, (Gc.minor_words () -. w0) /. float_of_int n)
  in
  let rs = List.init passes (fun _ -> run ()) in
  (median (List.map fst rs), median (List.map snd rs))

(* Purge_index at the workload's delivery-queue depth: each fresh
   message is planned against the queue, its victims removed, then it
   is added; the oldest entry is delivered once the queue exceeds
   [depth]. *)
let purge_index w ~n ~depth =
  let run () =
    let idx = Purge_index.create () in
    let q = Queue.create () in
    let gone = Hashtbl.create 64 in
    let t_plan = ref 0.0 and t_add = ref 0.0 and adds = ref 0 in
    for i = 0 to n - 1 do
      let id = Msg_id.make ~sender:0 ~sn:(i + 1) and ann = w.Cluster.ann i in
      let a = now () in
      let victims, dropped = Purge_index.plan idx ~view:0 ~id ~ann in
      t_plan := !t_plan +. (now () -. a);
      List.iter
        (fun (v : int Purge_index.victim) ->
          Purge_index.remove idx ~view:0 ~id:v.Purge_index.victim_id
            ~ann:v.Purge_index.victim_ann;
          Hashtbl.replace gone v.Purge_index.victim_handle ())
        victims;
      if not dropped then begin
        let a = now () in
        Purge_index.add idx ~view:0 ~id ~ann i ~seq:i;
        t_add := !t_add +. (now () -. a);
        incr adds;
        Queue.push (i, id, ann) q
      end;
      let rec evict () =
        if Queue.length q > depth then begin
          let j, id, ann = Queue.pop q in
          if Hashtbl.mem gone j then Hashtbl.remove gone j
          else Purge_index.remove idx ~view:0 ~id ~ann;
          evict ()
        end
      in
      evict ()
    done;
    (per_call !t_add !adds, per_call !t_plan n)
  in
  let rs = List.init passes (fun _ -> run ()) in
  (median (List.map fst rs), median (List.map snd rs))

(* Shed.walk over an outbound queue [depth] frames deep: each fresh
   frame walks the queue, its victims leave, and it joins the tail. *)
let shed_walk w ~n ~depth =
  let keys =
    Array.init n (fun i ->
        { Shed.id = Msg_id.make ~sender:0 ~sn:(i + 1); ann = w.Cluster.ann i; view = 0 })
  in
  let run () =
    let queue = ref [] and len = ref 0 and t = ref 0.0 in
    for i = 0 to n - 1 do
      let a = now () in
      let victims =
        Shed.walk ~meta:(fun j -> Some keys.(j)) ~shed:(fun _ -> false) ~fresh:keys.(i) !queue
      in
      t := !t +. (now () -. a);
      if victims <> [] then begin
        queue := List.filter (fun j -> not (List.memq j victims)) !queue;
        len := List.length !queue
      end;
      queue := i :: !queue;
      incr len;
      if !len > depth then begin
        queue := List.filteri (fun k _ -> k < depth) !queue;
        len := depth
      end
    done;
    per_call !t n
  in
  med_pass run

(* Inner-frame iteration over Iobuf batches of [per_batch] frames. *)
let iter_batch encoded ~per_batch =
  let n = Array.length encoded in
  let wr = Codec.Writer.create () in
  let batches = ref [] in
  let i = ref 0 in
  while !i < n do
    let b = Iobuf.create ~capacity:256 () in
    for j = !i to min n (!i + per_batch) - 1 do
      Codec.Writer.clear wr;
      Codec.Writer.varint wr (String.length encoded.(j));
      Iobuf.add_writer b wr;
      Iobuf.add_string b encoded.(j)
    done;
    batches := b :: !batches;
    i := !i + per_batch
  done;
  let run () =
    let frames = ref 0 in
    let t0 = now () in
    List.iter (fun b -> Tcp_mesh.iter_batch (Iobuf.contents_slice b) (fun _ -> incr frames)) !batches;
    (now () -. t0) /. float_of_int (max 1 !frames)
  in
  med_pass run

(* WAL: one delivery-floor record per message, group-committed every
   [per_sync] appends, then a recovery of the log just written. Each
   pass writes a fresh directory, deleted with the run's others at the
   end: deleting one between passes would put the deletion's journal
   commit into the next pass's first sync. *)
let wal ~dir ~n ~per_sync =
  let run pass =
    let dir = Printf.sprintf "%s-%d" dir pass in
    let w, _ = Wal.open_exn ~dir ~me:0 () in
    let t_app = ref 0.0 and t_sync = ref 0.0 and syncs = ref 0 in
    let i = ref 0 in
    while !i < n do
      let a = now () in
      for j = !i to min n (!i + per_sync) - 1 do
        Wal.append w (Wal.Floor { sender = 0; sn = j })
      done;
      let b = now () in
      Wal.sync w;
      let c = now () in
      t_app := !t_app +. (b -. a);
      t_sync := !t_sync +. (c -. b);
      incr syncs;
      i := !i + per_sync
    done;
    Wal.close w;
    let a = now () in
    let w, _ = Wal.open_exn ~dir ~me:0 () in
    let t_rec = now () -. a in
    Wal.close w;
    (!t_app /. float_of_int n, !t_sync /. float_of_int !syncs, t_rec)
  in
  let rs = List.init passes run in
  let pick f = median (List.map f rs) in
  (pick (fun (a, _, _) -> a), pick (fun (_, s, _) -> s), pick (fun (_, _, r) -> r))

type t = {
  encode_ns : float;
  decode_ns : float;
  wire_bytes : float;
  protocol_ns : float;
  protocol_words : float;
  pi_add_ns : float;
  pi_plan_ns : float;
  shed_ns : float;
  iter_batch_ns : float;
  wal_append_ns : float;
  wal_sync_us : float;
  wal_recover_ms : float;
}

let run w ~n ~queue_depth ~backlog_frames ~frames_per_batch ~per_sync ~dir =
  let ns x = x *. 1e9 in
  let encode, decode, wire_bytes, encoded = wire_codec w ~n in
  let protocol_s, protocol_words = protocol w ~n in
  let pi_add, pi_plan = purge_index w ~n ~depth:(max 1 queue_depth) in
  let shed = shed_walk w ~n ~depth:(max 1 (min Shed.max_walk backlog_frames)) in
  let ib = iter_batch encoded ~per_batch:(max 1 frames_per_batch) in
  let wal_append, wal_sync, wal_recover = wal ~dir ~n ~per_sync:(max 1 per_sync) in
  {
    encode_ns = ns encode;
    decode_ns = ns decode;
    wire_bytes;
    protocol_ns = ns protocol_s;
    protocol_words;
    pi_add_ns = ns pi_add;
    pi_plan_ns = ns pi_plan;
    shed_ns = ns shed;
    iter_batch_ns = ns ib;
    wal_append_ns = ns wal_append;
    wal_sync_us = wal_sync *. 1e6;
    wal_recover_ms = wal_recover *. 1e3;
  }

(* Sum of the replayed layer costs along one message's path through
   the group, in microseconds: encoded and decoded once per remote
   receiver, one batch iteration per remote receiver, a floor record
   appended at each of the three members, and the protocol replay
   (which already spans all three instances and their purge indexes). *)
let per_message_us l ~fanout =
  let f = float_of_int fanout in
  ((f *. (l.encode_ns +. l.decode_ns +. l.iter_batch_ns))
  +. l.protocol_ns
  +. ((f +. 1.0) *. l.wal_append_ns))
  /. 1000.0
