type t = {
  clock : Clock.t;
  queue : (unit -> unit) Heapq.t;
  mutable observer : (int -> unit) option;
}

let create clock = { clock; queue = Heapq.create (); observer = None }
let clock t = t.clock
let set_observer t f = t.observer <- f

let at t cycle f =
  if cycle < Clock.cycles t.clock then invalid_arg "Engine.at: event in the past";
  Heapq.push t.queue cycle f

let after t d f =
  if d < 0 then invalid_arg "Engine.after: negative delay";
  at t (Clock.cycles t.clock + d) f

let after_ns t d = after t (Clock.cycles_of_ns d)
let pending t = Heapq.length t.queue
let next_cycle t = Heapq.min_key t.queue

let step t =
  if Heapq.is_empty t.queue then false
  else begin
    let cycle = Heapq.min_key t.queue in
    let f = Heapq.take t.queue in
    if cycle > Clock.cycles t.clock then
      Clock.advance t.clock (cycle - Clock.cycles t.clock);
    (match t.observer with
    | None -> f ()
    | Some obs ->
        let c0 = Clock.cycles t.clock in
        f ();
        obs (Clock.cycles t.clock - c0));
    true
  end

let rec run ?until t =
  match until with
  | None -> if step t then run t
  | Some limit ->
      if (not (Heapq.is_empty t.queue)) && Heapq.min_key t.queue <= limit then begin
        ignore (step t);
        run ~until:limit t
      end
      else if Clock.cycles t.clock < limit then
        Clock.advance t.clock (limit - Clock.cycles t.clock)

let run_for_ns t d = run ~until:(Clock.cycles t.clock + Clock.cycles_of_ns d) t
