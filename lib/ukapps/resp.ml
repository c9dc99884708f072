type value =
  | Simple of string
  | Error of string
  | Integer of int
  | Bulk of string
  | Null
  | Array of value list

let rec encode = function
  | Simple s -> "+" ^ s ^ "\r\n"
  | Error s -> "-" ^ s ^ "\r\n"
  | Integer i -> ":" ^ string_of_int i ^ "\r\n"
  | Bulk s -> Printf.sprintf "$%d\r\n%s\r\n" (String.length s) s
  | Null -> "$-1\r\n"
  | Array vs ->
      Printf.sprintf "*%d\r\n%s" (List.length vs) (String.concat "" (List.map encode vs))

let encode_command args = encode (Array (List.map (fun a -> Bulk a) args))

(* --- command scanner -------------------------------------------------------- *)

let max_args = 64

(* In-place RESP parse of one command ("*N\r\n$len\r\narg\r\n...") at
   [pos] in [buf[.., limit)]. Argument strings are materialized (they are
   keys and stored values — the app's objects, not payload frames). *)
let scan_command buf pos limit =
  let exception Incomplete in
  let exception Bad in
  let line p =
    let rec go i =
      if i + 1 >= limit then raise Incomplete
      else if Bytes.get buf i = '\r' && Bytes.get buf (i + 1) = '\n' then i
      else go (i + 1)
    in
    go p
  in
  let int_at p e =
    match int_of_string_opt (Bytes.sub_string buf p (e - p)) with
    | Some v -> v
    | None -> raise Bad
  in
  try
    if pos >= limit then Stdlib.Error `Incomplete
    else if Bytes.get buf pos <> '*' then Stdlib.Error `Bad
    else begin
      let e = line pos in
      let n = int_at (pos + 1) e in
      if n < 0 || n > max_args then Stdlib.Error `Bad
      else begin
        let p = ref (e + 2) in
        let args = ref [] in
        for _ = 1 to n do
          if !p >= limit then raise Incomplete;
          if Bytes.get buf !p <> '$' then raise Bad;
          let e = line !p in
          let len = int_at (!p + 1) e in
          if len < 0 then raise Bad;
          let s = e + 2 in
          (* A bulk over the connection's unconsumed-byte bound can
             never complete. Compare against the room left: [s + len + 2]
             wraps for lengths near max_int. *)
          if len > Lineserv.max_pending then raise Bad;
          if len > limit - s - 2 then raise Incomplete;
          if not (Bytes.get buf (s + len) = '\r' && Bytes.get buf (s + len + 1) = '\n') then
            raise Bad;
          args := Bytes.sub_string buf s len :: !args;
          p := s + len + 2
        done;
        Ok (List.rev !args, !p)
      end
    end
  with
  | Incomplete -> Stdlib.Error `Incomplete
  | Bad -> Stdlib.Error `Bad

(* --- reply scanner ---------------------------------------------------------- *)

(* Counts complete replies in a byte stream without materializing values.
   State is tiny — bulk-body bytes still to skip, plus an accumulator for
   the current header line — so replies can be counted directly in the
   driver's ring buffer. *)
type reply_scanner = { mutable skip : int; line : Buffer.t }

let reply_scanner () = { skip = 0; line = Buffer.create 16 }

let scan_replies sc buf off len ~on_reply =
  let i = ref off in
  let limit = off + len in
  while !i < limit do
    if sc.skip > 0 then begin
      let n = min sc.skip (limit - !i) in
      sc.skip <- sc.skip - n;
      i := !i + n;
      if sc.skip = 0 then on_reply `Ok
    end
    else begin
      let c = Bytes.get buf !i in
      Buffer.add_char sc.line c;
      incr i;
      let l = Buffer.length sc.line in
      if l >= 2 && c = '\n' && Buffer.nth sc.line (l - 2) = '\r' then begin
        let s = Buffer.contents sc.line in
        Buffer.clear sc.line;
        match s.[0] with
        | '+' | ':' -> on_reply `Ok
        | '$' -> (
            match int_of_string_opt (String.sub s 1 (l - 3)) with
            | Some -1 -> on_reply `Ok
            | Some n when n >= 0 && n <= max_int - 2 -> sc.skip <- n + 2 (* body + CRLF *)
            | Some _ | None -> on_reply `Err)
        | _ -> on_reply `Err
      end
    end
  done
