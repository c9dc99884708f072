(* Port of tinyalloc's structure: a bounded pool of block descriptors, a
   first-fit free list kept in address order, a bump "fresh" area, and
   compaction on free. Costs are dominated by list walks, which is the
   point: tinyalloc degrades under fragmentation. *)

let walk_cost = 8 (* per free-list node visited *)
let base_cost = 10 (* the hot path really is tiny *)
let compact_cost = 26 (* per merge *)
let init_cost = 1500

(* Block descriptors, capped as in the C original; the paper's port
   raises the C default of 256 to run SQLite's 60k-insert workload. *)
let max_blocks = 1 lsl 20

type block = { mutable addr : int; mutable size : int }

type state = {
  clock : Uksim.Clock.t;
  limit : int;
  mutable top : int; (* bump pointer for fresh blocks *)
  mutable free : block list; (* address-ordered *)
  mutable used : (int, block) Hashtbl.t;
  mutable st : Alloc.stats;
}

let charge t c = Uksim.Clock.advance t.clock c
let n_blocks t = Hashtbl.length t.used + List.length t.free

let bump_stats t payload =
  let in_use = t.st.bytes_in_use + payload in
  t.st <-
    {
      t.st with
      allocs = t.st.allocs + 1;
      bytes_in_use = in_use;
      peak_bytes = max t.st.peak_bytes in_use;
    }

(* First fit over the address-ordered free list; charges per node walked. *)
let take_free t size =
  let rec go acc = function
    | [] -> None
    | b :: rest ->
        charge t walk_cost;
        if b.size >= size then begin
          t.free <- List.rev_append acc rest;
          Some b
        end
        else go (b :: acc) rest
  in
  go [] t.free

let do_malloc t ~align size =
  charge t base_cost;
  if size <= 0 || not (Alloc.is_power_of_two align) then None
  else begin
    let want = Alloc.round_up size (max align 16) in
    match take_free t want with
    | Some b ->
        (* tinyalloc reuses the whole block without splitting. *)
        Hashtbl.replace t.used b.addr b;
        bump_stats t b.size;
        Some b.addr
    | None ->
        let addr = Alloc.round_up t.top (max align 16) in
        if addr + want > t.limit || n_blocks t >= max_blocks then begin
          t.st <- { t.st with failed = t.st.failed + 1 };
          None
        end
        else begin
          t.top <- addr + want;
          let b = { addr; size = want } in
          Hashtbl.replace t.used addr b;
          bump_stats t want;
          Some addr
        end
  end

(* Insert in address order, then merge adjacent runs (tinyalloc's
   compact step). *)
let insert_free t b =
  let rec insert = function
    | [] -> [ b ]
    | x :: rest ->
        charge t walk_cost;
        if b.addr < x.addr then b :: x :: rest else x :: insert rest
  in
  t.free <- insert t.free;
  let rec compact = function
    | x :: y :: rest when x.addr + x.size = y.addr ->
        charge t compact_cost;
        x.size <- x.size + y.size;
        compact (x :: rest)
    | x :: rest -> x :: compact rest
    | [] -> []
  in
  t.free <- compact t.free

let do_free t addr =
  charge t base_cost;
  match Hashtbl.find_opt t.used addr with
  | None -> invalid_arg (Printf.sprintf "Tinyalloc.free: unknown address %#x" addr)
  | Some b ->
      Hashtbl.remove t.used addr;
      (* Payload accounting uses block size as the C version does not keep
         requested sizes; stats track block-granularity live bytes. *)
      t.st <- { t.st with frees = t.st.frees + 1; bytes_in_use = max 0 (t.st.bytes_in_use - b.size) };
      insert_free t b

let create ~clock ~base ~len =
  if len <= 0 then invalid_arg "Tinyalloc.create";
  Uksim.Clock.advance clock init_cost;
  let t =
    {
      clock;
      limit = base + len;
      top = base;
      free = [];
      used = Hashtbl.create 128;
      st = Alloc.zero_stats;
    }
  in
  let malloc size = do_malloc t ~align:16 size in
  let calloc n size = if n <= 0 || size <= 0 then None else malloc (n * size) in
  let realloc addr size =
    if addr = 0 then malloc size
    else
      match Hashtbl.find_opt t.used addr with
      | None -> None
      | Some b ->
          if size <= b.size then Some addr
          else (
            match malloc size with
            | None -> None
            | Some naddr ->
                charge t (Uksim.Cost.memcpy b.size);
                do_free t addr;
                Some naddr)
  in
  let availmem () =
    t.limit - t.top + List.fold_left (fun acc b -> acc + b.size) 0 t.free
  in
  {
    Alloc.name = "tinyalloc";
    malloc;
    calloc;
    memalign = (fun ~align size -> do_malloc t ~align size);
    free = (fun a -> do_free t a);
    realloc;
    availmem;
    stats = (fun () -> { t.st with metadata_bytes = n_blocks t * 24 });
  }
