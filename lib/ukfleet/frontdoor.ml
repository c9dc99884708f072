type policy = Round_robin | Least_loaded | Consistent_hash

let policy_name = function
  | Round_robin -> "round-robin"
  | Least_loaded -> "least-loaded"
  | Consistent_hash -> "consistent-hash"

type t = {
  pol : policy;
  vnodes : int;
  mutable members : int list; (* ascending *)
  mutable ids : int array; (* [members], as an array *)
  mutable cursor : int; (* round-robin position, indexes the active members *)
  mutable ring_pt : int array; (* ring points, ascending *)
  mutable ring_m : int array; (* the member owning each point *)
  (* By member id. [pick_of.(m)] is [Some m] for members and [None]
     otherwise: picks return the preallocated option. *)
  mutable pick_of : int option array;
  mutable quar : bool array; (* excluded from pick, ring spot kept *)
  mutable n_quar : int; (* quarantined members *)
}

(* splitmix64-style avalanche over the positive int range: the ring
   placement and flow hashes — stable across runs by construction. *)
let mix v =
  let x = v land max_int in
  let x = (x lxor (x lsr 30)) * 0x5851f42d4c957f2d land max_int in
  let x = (x lxor (x lsr 27)) * 0x14057b7ef767814f land max_int in
  x lxor (x lsr 31)

let create ?(vnodes = 32) pol =
  if vnodes <= 0 then invalid_arg "Frontdoor.create: vnodes must be positive";
  {
    pol;
    vnodes;
    members = [];
    ids = [||];
    cursor = 0;
    ring_pt = [||];
    ring_m = [||];
    pick_of = [||];
    quar = [||];
    n_quar = 0;
  }

let policy t = t.pol
let members t = t.members
let is_member t m = m >= 0 && m < Array.length t.pick_of && Option.is_some t.pick_of.(m)
let quarantined t m = m >= 0 && m < Array.length t.quar && t.quar.(m)
let active t = List.filter (fun m -> not t.quar.(m)) t.members

let quarantine t m =
  if is_member t m && not t.quar.(m) then begin
    t.quar.(m) <- true;
    t.n_quar <- t.n_quar + 1
  end

let unquarantine t m =
  if quarantined t m then begin
    t.quar.(m) <- false;
    t.n_quar <- t.n_quar - 1
  end

let rebuild_ring t =
  let pts =
    List.concat_map
      (fun m -> List.init t.vnodes (fun v -> (mix ((m * 8191) + v), m)))
      t.members
  in
  let a = Array.of_list pts in
  (* (point, member) order, as polymorphic [compare] gives int pairs. *)
  Array.sort
    (fun (p, m) (q, n) -> if p <> q then Int.compare p q else Int.compare m n)
    a;
  t.ring_pt <- Array.map fst a;
  t.ring_m <- Array.map snd a

let set_members t ms =
  t.members <- ms;
  t.ids <- Array.of_list ms;
  if t.pol = Consistent_hash then rebuild_ring t

let add t m =
  if m < 0 then invalid_arg "Frontdoor.add: negative member id";
  if not (is_member t m) then begin
    let cap = Array.length t.pick_of in
    if m >= cap then begin
      let ncap = max (m + 1) (2 * cap) in
      t.pick_of <- Array.append t.pick_of (Array.make (ncap - cap) None);
      t.quar <- Array.append t.quar (Array.make (ncap - cap) false)
    end;
    t.pick_of.(m) <- Some m;
    set_members t (List.sort compare (m :: t.members))
  end

let remove t m =
  if is_member t m then begin
    unquarantine t m;
    t.pick_of.(m) <- None;
    set_members t (List.filter (fun x -> x <> m) t.members);
    if t.cursor >= Array.length t.ids then t.cursor <- 0
  end

(* The [i]-th active member, in ascending id order. *)
let nth_active t i =
  let k = ref 0 and left = ref i in
  while !left > 0 || t.quar.(t.ids.(!k)) do
    if not t.quar.(t.ids.(!k)) then decr left;
    incr k
  done;
  t.ids.(!k)

let pick_rr t =
  let n = Array.length t.ids - t.n_quar in
  if n = 0 then None
  else begin
    let i = t.cursor mod n in
    t.cursor <- i + 1;
    t.pick_of.(nth_active t i)
  end

(* First strict minimum of [load] over the active members, in id order. *)
let pick_least t ~load =
  let best = ref (-1) and best_load = ref 0.0 in
  for k = 0 to Array.length t.ids - 1 do
    let m = t.ids.(k) in
    if not t.quar.(m) then begin
      let l = load m in
      if !best < 0 || l < !best_load then begin
        best := m;
        best_load := l
      end
    end
  done;
  if !best < 0 then None else t.pick_of.(!best)

let pick_hash t ~flow =
  let n = Array.length t.ring_pt in
  if n = 0 || t.n_quar >= Array.length t.ids then None
  else begin
    let h = mix flow in
    (* successor of h on the ring (wrapping) *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.ring_pt.(mid) < h then lo := mid + 1 else hi := mid
    done;
    (* Quarantined members keep their ring points but are skipped: the
       flow lands on the next live successor, and comes back to the
       exact same member on unquarantine — no arc remapping. Some
       member is live, so the scan stops within one lap. *)
    let i = ref !lo in
    while t.quar.(t.ring_m.(!i mod n)) do
      incr i
    done;
    t.pick_of.(t.ring_m.(!i mod n))
  end

let pick t ~flow ~load =
  match t.pol with
  | Round_robin -> pick_rr t
  | Least_loaded -> pick_least t ~load
  | Consistent_hash -> pick_hash t ~flow
