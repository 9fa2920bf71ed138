type t =
  | Ok
  | Bad_capability
  | No_such_object
  | No_space
  | Not_found
  | Bad_request
  | Exists
  | Server_failure
  | Timeout

let to_int = function
  | Ok -> 0
  | Bad_capability -> 1
  | No_such_object -> 2
  | No_space -> 3
  | Not_found -> 4
  | Bad_request -> 5
  | Exists -> 6
  | Server_failure -> 7
  | Timeout -> 8

let of_int = function
  | 0 -> Ok
  | 1 -> Bad_capability
  | 2 -> No_such_object
  | 3 -> No_space
  | 4 -> Not_found
  | 5 -> Bad_request
  | 6 -> Exists
  | 8 -> Timeout
  | _ -> Server_failure

let to_string = function
  | Ok -> "ok"
  | Bad_capability -> "bad capability"
  | No_such_object -> "no such object"
  | No_space -> "no space"
  | Not_found -> "not found"
  | Bad_request -> "bad request"
  | Exists -> "already exists"
  | Server_failure -> "server failure"
  | Timeout -> "timeout"

exception Error of t

let check = function Ok -> () | err -> raise (Error err)
