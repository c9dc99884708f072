module B = Blockdev

(* Guest-side descriptor work per request; host path is latency on the
   engine. *)
let guest_req_cost = 140
let kick_cost = Uksim.Cost.vm_exit
let irq_cost = Uksim.Cost.interrupt_delivery

(* A synchronous wait polls the completion queue on this grid. *)
let poll_step = 500

let sector_size = 512

(* The medium is a table of fixed-size pages, each allocated on its
   first write; an unwritten page reads as zeros. A 64 MiB disk that is
   never written costs one small array. *)
let page_bytes = 64 * 1024

(* The medium plus what both devices keep about completed requests:
   the counters and the completion queue. *)
type backing = {
  pages : bytes option array;
  capacity : int;
  done_q : B.completion Queue.t;
  mutable st : B.stats;
}

let mk_backing ~capacity_sectors =
  { pages = Array.make ((capacity_sectors * sector_size + page_bytes - 1) / page_bytes) None;
    capacity = capacity_sectors;
    done_q = Queue.create ();
    st = B.zero_stats }

(* Visit the pages under byte range [off, off + n) in order: [f i
   page_off buf_off len] for page [i]. *)
let iter_pages ~off ~n f =
  let rec go pos =
    if pos < off + n then begin
      let page_off = pos mod page_bytes in
      let len = min (page_bytes - page_off) (off + n - pos) in
      f (pos / page_bytes) page_off (pos - off) len;
      go (pos + len)
    end
  in
  go off

let read_medium backing ~off ~n =
  let out = Bytes.make n '\000' in
  iter_pages ~off ~n (fun i page_off buf_off len ->
      match backing.pages.(i) with
      | Some page -> Bytes.blit page page_off out buf_off len
      | None -> ());
  out

let write_medium backing ~off data =
  iter_pages ~off ~n:(Bytes.length data) (fun i page_off buf_off len ->
      let page =
        match backing.pages.(i) with
        | Some page -> page
        | None ->
            let page = Bytes.make page_bytes '\000' in
            backing.pages.(i) <- Some page;
            page
      in
      Bytes.blit data buf_off page page_off len)

let sectors_of = function
  | B.Read { sectors; _ } -> sectors
  | B.Write { data; _ } -> Bytes.length data / sector_size

(* Run [req] against the medium and count it if it completed. *)
let do_request backing (req : B.request) : (bytes, B.error) result =
  let result =
    match req with
    | B.Read { lba; sectors } ->
        if lba < 0 || sectors <= 0 || lba + sectors > backing.capacity then Error B.Ebounds
        else Ok (read_medium backing ~off:(lba * sector_size) ~n:(sectors * sector_size))
    | B.Write { lba; data } ->
        let n = Bytes.length data in
        if
          lba < 0 || n = 0
          || n mod sector_size <> 0
          || lba + (n / sector_size) > backing.capacity
        then Error B.Ebounds
        else begin
          write_medium backing ~off:(lba * sector_size) data;
          Ok Bytes.empty
        end
  in
  (match result with
  | Error _ -> ()
  | Ok _ ->
      let n = sectors_of req in
      let st = backing.st in
      backing.st <-
        (match req with
        | B.Read _ -> { st with B.reads = st.B.reads + 1; sectors_read = st.B.sectors_read + n }
        | B.Write _ ->
            { st with B.writes = st.B.writes + 1; sectors_written = st.B.sectors_written + n }));
  result

let take_completions backing ~max:max_c =
  let rec take acc k =
    if k >= max_c then List.rev acc
    else
      match Queue.take_opt backing.done_q with
      | Some c -> take (c :: acc) (k + 1)
      | None -> List.rev acc
  in
  take [] 0

let create ~clock ~engine ?(capacity_sectors = 131072) ?(queue_depth = 128)
    ?(host_latency_ns = 20_000.0) () =
  let backing = mk_backing ~capacity_sectors in
  let inflight = ref 0 in
  let handler = ref None in
  let charge c = Uksim.Clock.advance clock c in
  let complete req =
    let result = do_request backing req in
    let was_idle = Queue.is_empty backing.done_q in
    Queue.push { B.req; result } backing.done_q;
    decr inflight;
    if was_idle then
      match !handler with
      | Some f ->
          charge irq_cost;
          f ()
      | None -> ()
  in
  let submit reqs =
    let room = queue_depth - !inflight in
    let n = min room (Array.length reqs) in
    if n > 0 then begin
      for i = 0 to n - 1 do
        charge guest_req_cost;
        let req = reqs.(i) in
        incr inflight;
        (* Host path: latency plus per-sector transfer time. *)
        let latency =
          Uksim.Clock.cycles_of_ns host_latency_ns
          + Uksim.Cost.memcpy (sectors_of req * sector_size)
        in
        Uksim.Engine.after engine latency (fun () -> complete req)
      done;
      charge kick_cost
    end;
    n
  in
  let poll_completions ~max =
    Uksim.Engine.run ~until:(Uksim.Clock.cycles clock) engine;
    take_completions backing ~max
  in
  let wait_one () =
    (* Synchronous convenience: poll every [poll_step] cycles of virtual
       time until a completion. A poll before the engine's next event
       finds nothing, so jump straight to the first poll point at or
       after it: the same polls that would run, without the empty
       ones. An event already due (an earlier one ran long) waits for
       the next poll, as before. *)
    let rec go () =
      match poll_completions ~max:1 with
      | [ c ] -> c
      | _ ->
          let next = Uksim.Engine.next_cycle engine in
          let ahead = if next = max_int then 1 else next - Uksim.Clock.cycles clock in
          Uksim.Clock.advance clock (poll_step * max 1 ((ahead + poll_step - 1) / poll_step));
          go ()
    in
    go ()
  in
  let read_sync ~lba ~sectors =
    if submit [| B.Read { lba; sectors } |] = 0 then Error B.Equeue_full
    else (wait_one ()).B.result
  in
  let write_sync ~lba data =
    if submit [| B.Write { lba; data } |] = 0 then Error B.Equeue_full
    else match (wait_one ()).B.result with Ok _ -> Ok () | Error e -> Error e
  in
  let dev =
    {
      B.name = "virtio-blk";
      sector_size;
      capacity_sectors;
      submit;
      poll_completions;
      pending = (fun () -> !inflight);
      set_completion_handler = (fun f -> handler := f);
      read_sync;
      write_sync;
      flush = (fun () -> Uksim.Engine.run ~until:(Uksim.Clock.cycles clock) engine);
      stats = (fun () -> backing.st);
    }
  in
  B.register_source dev;
  dev

let create_ramdisk ~clock ?(capacity_sectors = 131072) () =
  let backing = mk_backing ~capacity_sectors in
  let run req =
    Uksim.Clock.advance clock (40 + Uksim.Cost.memcpy (sectors_of req * sector_size));
    do_request backing req
  in
  let submit reqs =
    Array.iter (fun req -> Queue.push { B.req; result = run req } backing.done_q) reqs;
    Array.length reqs
  in
  let dev =
    {
      B.name = "ramdisk";
      sector_size;
      capacity_sectors;
      submit;
      poll_completions = take_completions backing;
      pending = (fun () -> 0);
      set_completion_handler = (fun _ -> ());
      read_sync = (fun ~lba ~sectors -> run (B.Read { lba; sectors }));
      write_sync =
        (fun ~lba data ->
          match run (B.Write { lba; data }) with Ok _ -> Ok () | Error e -> Error e);
      flush = (fun () -> ());
      stats = (fun () -> backing.st);
    }
  in
  B.register_source dev;
  dev
